"""Columnar Path ORAM Backend: the §3.1 access algorithm as one C call.

``ColumnarPathOramBackend`` is the fast tier's drop-in replacement for
:class:`~repro.backend.path_oram.PathOramBackend`, bound to a
:class:`~repro.storage.columnar.ColumnarTreeStorage`. Its :meth:`access`
*is* the ``AccessKernel`` handle of ``repro.sim.native._replay_core``,
bound at construction: counters, path read, fused drain, update hand-off,
greedy deepest-first placement with LIFO candidate/pool order, stash
reconcile, write-back accounting and the occupancy sample, as integer
loops over the storage's typed columns (``bucket_slots`` /
``bucket_fill`` for the tree, the stash's slot column, ``addr_col`` /
``leaf_col`` for what a slot holds) — with the object backend's
semantics (validation order, error text, placement order) held exactly.
Only the block of interest is ever materialised: for the caller's
``update`` callback, for ``READRMV`` hand-off, and as the defensive
``READ``/``WRITE`` result.

There is no interpreted spelling: without a usable extension the
constructor raises :class:`~repro.errors.NativeKernelUnavailable` and
the reference tier (``PathOramBackend`` over object storage) is what
runs. Equivalence to the object backend is enforced by the differential
harness in ``tests/test_columnar_differential.py``,
``tests/test_native_replay.py`` (in lockstep after every access) and the
golden digests.

Error handling is transactional: nothing but the block of interest's own
slot is written before placement, and the stash column is only rewritten
after it, so a failure anywhere before placement (drain, update
callback, depth validation) rolls back — through :meth:`_abort_access`,
which the kernel calls — to the exact pre-access stash snapshot and tree
digest, matching ``PathOramBackend``.
"""

from __future__ import annotations

from typing import Optional

from repro.backend.ops import Op
from repro.backend.stash import ColumnarStash
from repro.config import OramConfig
from repro.errors import (
    RESTORE_FAILURES,
    BlockNotFoundError,
    StashOverflowError,
)
from repro.storage.block import Block
from repro.storage.columnar import CHUNK_SLOTS
from repro.utils.rng import DeterministicRng
from repro.utils.stats import LEDGERS


@LEDGERS["backend"].bind()
class ColumnarPathOramBackend:
    """One Path ORAM Backend bound to a columnar store and a slot stash."""

    def __init__(
        self,
        config: OramConfig,
        storage,
        rng: DeterministicRng,
        allow_missing: bool = True,
    ):
        from repro.sim.native import require_core

        core = require_core()
        self.config = config
        self.storage = storage
        self.rng = rng
        self.allow_missing = allow_missing
        self.stash = ColumnarStash(config.stash_limit, storage)
        self.ledger = LEDGERS["backend"].column()
        occupancy = self.stash.occupancy_stats
        # Fails fast when the storage cannot hand out buffer-capable
        # columns (the zero-copy contract the kernel relies on).
        addr_col, leaf_col = storage.interchange_columns()
        self._kernel = core.AccessKernel(
            self, storage, addr_col, leaf_col, storage.mac_col,
            storage._chunks, storage._free, storage.bucket_slots,
            storage.bucket_fill, self.stash.slots,
            self.ledger, storage.ledger, occupancy.ledger, occupancy.moments,
            config.levels, config.blocks_per_bucket, config.block_bytes,
            CHUNK_SLOTS, self.stash.limit, allow_missing,
            Block, Op.APPEND, Op.READRMV,
            BlockNotFoundError, StashOverflowError,
        )

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
        the arena without any tree access. One C call.
        """
        return self._kernel.access(op, addr, leaf, new_leaf, update, append_block)

    # -- error restoration ----------------------------------------------------

    def _abort_access(
        self, exc: BaseException, created_fresh: bool,
        slot: Optional[int], saved_fields,
    ) -> None:
        """Roll a failed access back without masking ``exc``.

        The kernel calls this with ``exc`` pending. Placement only runs
        after everything that can fail, so the path buckets and the stash
        column were never written: all that remains is releasing a freshly
        claimed ``slot``, or restoring the block of interest's leaf,
        payload and MAC from the kernel's snapshot ``saved_fields`` — after
        which the stash snapshot and tree digest equal their pre-access
        values, mirroring ``PathOramBackend._restore``.

        Restoration failures of the *expected* kinds (the library's own
        errors, container/buffer faults from a corrupted snapshot —
        :data:`repro.errors.RESTORE_FAILURES`) are chained onto the
        original error as a note instead of replacing it; anything else
        escaping the restore path is a programming error and propagates,
        with ``exc`` attached as its ``__context__``.
        """
        storage = self.storage
        try:
            if created_fresh:
                storage.release(slot)
            elif slot is not None and saved_fields is not None:
                leaf, payload, mac = saved_fields
                storage.leaf_col[slot] = leaf
                storage.set_payload(slot, payload)
                storage.mac_col[slot] = mac
        except RESTORE_FAILURES as restore_exc:
            exc.add_note(f"state restoration also failed: {restore_exc!r}")
