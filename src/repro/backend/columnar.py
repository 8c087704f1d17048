"""Columnar Path ORAM Backend: the §3.1 access algorithm over slot columns.

``ColumnarPathOramBackend`` is a drop-in replacement for
:class:`~repro.backend.path_oram.PathOramBackend` bound to a
:class:`~repro.storage.columnar.ColumnarTreeStorage`. The algorithm —
fused drain + greedy deepest-first eviction with LIFO candidate/pool
placement, wholesale stash reconciliation, identical error restoration —
is a line-for-line transcription of the object backend, but every loop
moves *arena slot ids* (plain ints read out of the storage's addr/leaf
columns) instead of Block objects. Only the block of interest is ever
materialised: for the caller's ``update`` callback, for ``READRMV``
hand-off, and as the defensive ``READ``/``WRITE`` result.

Two interpreted eviction kernels produce bit-identical placements:

- the *scalar* kernel mirrors the object backend's by-depth grouping
  directly (fastest at simulation-scale paths of a few dozen blocks);
- the *vectorised* kernel engages when the merged working set reaches
  :data:`VEC_MIN_MERGE` blocks (large Z, deep trees, stash pressure):
  depths for the whole merge are computed in one numpy sweep
  (``levels - bit_length(leaf_col ^ leaf)`` via the exact float64
  exponent) and the LIFO placement is replayed over a single
  ``lexsort((-seq, depth))`` order with per-depth segment pointers —
  the closed form of "candidates LIFO, then pool LIFO".

Under the fast tier (:meth:`enable_native_kernel`, engaged by
``REPRO_REPLAY=compiled``) neither runs: :meth:`access` hands the whole
operation — counters, path read, drain, update hand-off, placement,
stash reconcile, write-back accounting, occupancy fold — to the
backend's ``AccessKernel`` handle in ``repro.sim.native._replay_core``,
one C call per access over the same columns and bucket lists, with the
scalar kernel's semantics (validation order, error text, placement
order) held exactly. The interpreted method below is the single
fallback for installs without a C toolchain.

The equivalence of all kernels to the object backend is enforced by the
differential harness in ``tests/test_columnar_differential.py`` (which
forces each interpreted kernel explicitly), ``tests/test_native_replay.py``
(the native kernel, in lockstep after every access) and the golden
digests.

Error handling is transactional on both kernels: bucket clearing is
deferred to placement time and the stash dict is only reconciled after
placement, so a failure anywhere before placement (drain, update
callback, depth validation — including the vectorised kernel's
eviction-time validation, which runs before any bucket is cleared) rolls
back to the exact pre-access stash snapshot and tree digest, matching
``PathOramBackend``.
"""

from __future__ import annotations

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

try:  # pragma: no cover - exercised indirectly on both branches
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Merged-set size at which the vectorised eviction kernel takes over.
#: Below it, numpy's fixed per-call overhead loses to the scalar slot
#: loop (measured crossover ~100 blocks on CPython 3.11); simulation-scale
#: paths (Z=4, L<=20) therefore use the scalar kernel.
VEC_MIN_MERGE = 96

#: float64 exponents are exact only below 2**53; deeper trees (never seen
#: in practice) fall back to the scalar kernel.
_VEC_MAX_LEVELS = 52


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
        # Scalar-kernel scratch, mirroring the object backend's exactly.
        self._by_depth: List[List[int]] = [[] for _ in range(config.levels + 1)]
        # Drained bookkeeping: one flat, merge-ordered snapshot of the
        # drained slots, consumed by the slow-path stash rebuild and by
        # error restoration. Bucket lists are cleared in place (never
        # replaced), so the storage's per-leaf path cache stays valid.
        self._drained_flat: List[int] = []
        self._resident_scratch: List[int] = []
        self._stash_slots = self.stash.slots_by_addr
        #: Vectorised-kernel engagement threshold (instance-level so the
        #: differential tests can force either kernel).
        self.vec_min_merge = (
            VEC_MIN_MERGE
            if _np is not None and config.levels <= _VEC_MAX_LEVELS
            else None
        )
        # Hot-loop bindings. The storage's columns and chunk table are
        # grown strictly in place (list.extend), so binding the objects
        # once is safe; this backend and its storage are a coupled pair.
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
            storage._chunks, storage._free, storage.buckets,
            self._stash_slots,
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
        store = self.storage
        return tuple(
            (store.addr_col[s], store.leaf_col[s], store.payload(s),
             store.mac_col[s])
            for s in self.stash.slots_by_addr.values()
        )

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
        if op is Op.APPEND:
            if append_block is None:
                raise ValueError("APPEND requires append_block")
            self.append_count += 1
            self.stash.add(append_block)
            self.stash.check_limit()
            return None

        self.tree_access_count += 1
        path = self._read_path_slots(leaf)

        levels = self.config.levels
        cap = self.config.blocks_per_bucket
        addr_col = self._addr_col
        leaf_col = self._leaf_col
        stash_slots = self._stash_slots
        by_depth = self._by_depth
        resident = self._resident_scratch
        drained_flat = self._drained_flat
        flat_extend = drained_flat.extend

        # Looked up but *not* removed: every success path reconciles or
        # clears the dict wholesale after placement, so a fault anywhere in
        # the try block leaves the stash untouched (exact rollback).
        slot = stash_slots.get(addr)
        created_fresh = False
        saved_fields = None
        vectorise = False
        merged: List[int] = []
        try:
            threshold = self.vec_min_merge
            # The merge can never exceed path capacity + stash residents,
            # so the per-bucket estimate is skipped outright for configs
            # (the common Z=4 simulation scale) that cannot reach the
            # vectorisation threshold.
            if (
                threshold is not None
                and self._path_capacity + len(stash_slots) >= threshold
            ):
                estimate = len(stash_slots)
                for lst in path:
                    estimate += len(lst)
                vectorise = estimate >= threshold

            if vectorise:
                # Gather-only drain: depths for the whole merge are
                # computed in one vectorised sweep afterwards (resident
                # bookkeeping is scalar-kernel-only — the vectorised
                # leftover path rebuilds from ``merged`` directly).
                if slot is None:
                    merged.extend(stash_slots.values())
                else:
                    # The block of interest is grouped last, not here.
                    merged.extend(s for s in stash_slots.values() if s != slot)
                if stash_slots:
                    for lst in path:
                        if lst:
                            flat_extend(lst)
                            for s in lst:
                                a = addr_col[s]
                                if a == addr:
                                    if slot is not None:
                                        raise ValueError(
                                            f"duplicate block {a:#x} in stash"
                                        )
                                    slot = s
                                    continue
                                if a in stash_slots:
                                    raise ValueError(
                                        f"duplicate block {a:#x} in stash"
                                    )
                                merged.append(s)
                else:
                    for lst in path:
                        if lst:
                            flat_extend(lst)
                            for s in lst:
                                if addr_col[s] == addr:
                                    if slot is not None:
                                        raise ValueError(
                                            f"duplicate block "
                                            f"{addr_col[s]:#x} in stash"
                                        )
                                    slot = s
                                    continue
                                merged.append(s)
            elif stash_slots:
                # Fused drain + depth grouping with stash-duplicate checks
                # (the stash dict still holds every resident, exactly like
                # the object backend's merged formulation).
                for s in stash_slots.values():
                    if s == slot:
                        continue  # the block of interest is grouped last
                    depth = levels - (leaf_col[s] ^ leaf).bit_length()
                    if depth < 0:
                        raise ValueError(
                            f"leaf label {leaf_col[s]} out of range for "
                            f"{levels}-level tree"
                        )
                    by_depth[depth].append(s)
                    resident.append(s)
                for lst in path:
                    if lst:
                        flat_extend(lst)
                        for s in lst:
                            a = addr_col[s]
                            if a == addr:
                                if slot is not None:
                                    raise ValueError(
                                        f"duplicate block {a:#x} in stash"
                                    )
                                slot = s
                                continue
                            if a in stash_slots:
                                raise ValueError(
                                    f"duplicate block {a:#x} in stash"
                                )
                            depth = levels - (leaf_col[s] ^ leaf).bit_length()
                            if depth < 0:
                                raise ValueError(
                                    f"leaf label {leaf_col[s]} out of range "
                                    f"for {levels}-level tree"
                                )
                            by_depth[depth].append(s)
            else:
                # Dominant replay path: empty stash, so no duplicate is
                # possible (the object backend's membership probe against
                # an empty dict is identically never-firing) and the drain
                # loop moves bare ints with no dict traffic at all.
                for lst in path:
                    if lst:
                        flat_extend(lst)
                        for s in lst:
                            if addr_col[s] == addr:
                                if slot is not None:
                                    raise ValueError(
                                        f"duplicate block {addr_col[s]:#x} "
                                        f"in stash"
                                    )
                                slot = s
                                continue
                            depth = levels - (leaf_col[s] ^ leaf).bit_length()
                            if depth < 0:
                                raise ValueError(
                                    f"leaf label {leaf_col[s]} out of range "
                                    f"for {levels}-level tree"
                                )
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

            result: Optional[Block]
            if op is Op.READRMV:
                # Ownership moves to the Frontend (PLB); the slot is
                # released after eviction succeeds, so error restoration
                # can still re-insert it.
                result = block
            else:
                depth = levels - (block.leaf ^ leaf).bit_length()
                if depth < 0:
                    raise ValueError(
                        f"leaf label {block.leaf} out of range for "
                        f"{levels}-level tree"
                    )
                if vectorise:
                    merged.append(slot)
                else:
                    by_depth[depth].append(slot)  # grouped last, re-insert
                result = block  # already an independent materialised copy
        except BaseException as exc:
            # BaseException, not Exception: a KeyboardInterrupt (or an
            # injected kill) mid-update must roll back too — the re-raise
            # below means nothing is ever swallowed. _abort_access keeps
            # a failing restore from masking the original error.
            self._abort_access(exc, created_fresh, slot, saved_fields)
            raise

        if vectorise:
            try:
                leftover = self._evict_vectorised(merged, path, leaf, levels, cap)
            except BaseException as exc:
                # The vectorised kernel validates depths at eviction time
                # (the scalar kernel validates during the drain, inside
                # the try above), so it needs the same restoration: no
                # bucket has been cleared yet when validation fails.
                self._abort_access(exc, created_fresh, slot, saved_fields)
                raise
            if leftover:
                stash_slots.clear()
                for s in leftover:
                    stash_slots[addr_col[s]] = s
            elif stash_slots:
                stash_slots.clear()
        else:
            # Greedy placement, deepest level first; candidates LIFO, then
            # the pool of deeper leftovers LIFO — the object backend's
            # loop verbatim, over ints.
            pool: List[int] = []
            pool_extend = pool.extend
            pool_pop = pool.pop
            for level in range(levels, -1, -1):
                candidates = by_depth[level]
                slots = path[level]
                if slots:
                    # Deferred drain clear: every path bucket was fully
                    # drained above (so the error path can identify the
                    # drained prefix from the flat snapshot), and empties
                    # here just before refill.
                    del slots[:]
                if not (candidates or pool):
                    continue
                free = cap
                while free > 0 and candidates:
                    slots.append(candidates.pop())
                    free -= 1
                if candidates:
                    pool_extend(candidates)
                    candidates.clear()  # leave the scratch lists empty
                while free > 0 and pool:
                    slots.append(pool_pop())
                    free -= 1

            if pool:
                self._rebuild_stash(op, addr, slot, pool)
            elif stash_slots:
                stash_slots.clear()
        resident.clear()
        drained_flat.clear()
        if op is Op.READRMV:
            store.release(slot)

        store.write_path_slots(leaf)
        self.stash.check_limit()
        return result

    # -- vectorised eviction kernel -------------------------------------------

    def _evict_vectorised(
        self,
        merged: List[int],
        path: List[List[int]],
        leaf: int,
        levels: int,
        cap: int,
    ) -> List[int]:
        """Vectorised depth grouping + LIFO placement; returns leftovers.

        ``merged`` lists every slot in merge order (stash residents,
        drained root->leaf, block of interest last). Depths are one numpy
        sweep; the greedy "candidates LIFO then pool LIFO" placement is
        replayed in closed form: sorting by ``(depth asc, seq desc)``
        makes each level's take the next run of the order with
        ``depth >= level``, tracked by per-depth segment pointers.
        Leftovers return in merge order, matching the scalar slow path.
        """
        n = len(merged)
        slots_arr = _np.fromiter(merged, dtype=_np.int64, count=n)
        # Zero-copy view over the unboxed leaf column; the fancy index
        # produces an independent array, so the view (and its buffer
        # export) is dropped before any arena growth can happen.
        leaf_view = _np.frombuffer(self.storage.leaf_col, dtype=_np.int64)
        leaves_arr = leaf_view[slots_arr]
        del leaf_view
        x = (leaves_arr ^ leaf).astype(_np.float64)
        depths = levels - _np.frexp(x)[1]
        if depths.min(initial=0) < 0:
            # Out-of-range leaf label: re-derive the first offender in
            # merge order so the error text matches the scalar kernel.
            for s in merged:
                value = self.storage.leaf_col[s]
                if levels - (value ^ leaf).bit_length() < 0:
                    raise ValueError(
                        f"leaf label {value} out of range for "
                        f"{levels}-level tree"
                    )
        order = _np.lexsort((-_np.arange(n, dtype=_np.int64), depths))
        sorted_slots = slots_arr[order].tolist()
        seg_counts = _np.bincount(depths[order], minlength=levels + 1)
        bounds = _np.concatenate(([0], _np.cumsum(seg_counts))).tolist()
        ptr = bounds[:-1]
        seg_end = bounds[1:]
        for level in range(levels, -1, -1):
            target = path[level]
            if target:
                del target[:]  # deferred drain clear (see the scalar kernel)
            budget = cap
            d = level
            while budget > 0 and d <= levels:
                p = ptr[d]
                take = seg_end[d] - p
                if take > 0:
                    if take > budget:
                        take = budget
                    target.extend(sorted_slots[p : p + take])
                    ptr[d] = p + take
                    budget -= take
                d += 1
        leftover_positions = [
            i for d in range(levels + 1) for i in range(ptr[d], seg_end[d])
        ]
        if not leftover_positions:
            return []
        order_list = order.tolist()
        return [merged[i] for i in sorted(order_list[i] for i in leftover_positions)]

    # -- slow-path stash rebuild ----------------------------------------------

    def _rebuild_stash(self, op: Op, addr: int, slot: int, pool) -> None:
        """Rebuild the stash dict from placement leftovers.

        Original merge order — resident survivors, drained survivors,
        block of interest last (see the object backend).
        """
        stash_slots = self._stash_slots
        addr_col = self._addr_col
        leftover_set = set(pool)
        stash_slots.clear()
        for s in self._resident_scratch:
            if s in leftover_set:
                stash_slots[addr_col[s]] = s
        for s in self._drained_flat:
            if s in leftover_set and s != slot:
                stash_slots[addr_col[s]] = s
        if op is not Op.READRMV and slot in leftover_set:
            stash_slots[addr] = slot

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

        Bucket clearing is deferred to placement time and placement only
        runs after the try block succeeds, so every failure reaching here
        finds the path buckets still populated and the stash dict never
        mutated; a freshly allocated zero slot was already released by the
        caller. All that remains is clearing the scratch lists and undoing
        the block of interest's remap/update from the column snapshot —
        after which the stash snapshot and tree digest both equal their
        pre-access values, mirroring ``PathOramBackend._restore_on_error``.
        """
        for group in self._by_depth:
            group.clear()
        self._drained_flat.clear()
        self._resident_scratch.clear()
        if slot is not None and saved_fields is not None:
            self._leaf_col[slot] = saved_fields[0]
            self.storage.set_payload(slot, saved_fields[1])
            self._mac_col[slot] = saved_fields[2]
