"""Path ORAM Backend: the §3.1 access algorithm with §4.2.2 extensions.

``PathOramBackend.access`` performs one full Backend operation:

1. read and decrypt all buckets on the requested path into the stash,
2. locate the block of interest (creating a zero block on first touch),
3. apply the caller's update (remap leaf, overwrite data/MAC),
4. greedily evict stash blocks back to the same path, deepest level first,
5. check the stash limit.

``READRMV`` hands the located block to the caller and removes it;
``APPEND`` inserts a previously removed block without any tree access.
Every tree touch is reported to the storage layer, which accounts
bandwidth and notifies the passive adversary.

The Backend never interprets block payloads: PosMap blocks, data blocks
and MAC tags are all opaque here — exactly the property that lets the
paper's Frontend schemes compose without Backend changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.backend.ops import Op
from repro.backend.stash import Stash
from repro.config import OramConfig
from repro.errors import RESTORE_FAILURES, BlockNotFoundError
from repro.storage.block import Block
from repro.utils.rng import DeterministicRng
from repro.utils.stats import LEDGERS


def make_backend(
    config: OramConfig,
    storage,
    rng: DeterministicRng,
    allow_missing: bool = True,
):
    """Backend matched to a storage model.

    A storage advertising ``columnar = True``
    (:class:`~repro.storage.columnar.ColumnarTreeStorage`) gets the
    slot-based :class:`~repro.backend.columnar.ColumnarPathOramBackend`
    (which needs the C extension); every bucket-object storage (plain, encrypted,
    Merkle-wrapped) keeps :class:`PathOramBackend`. Frontends construct
    their backends exclusively through this factory, so ``storage=`` on
    any spec selects the whole matched pair.
    """
    if getattr(storage, "columnar", False):
        from repro.backend.columnar import ColumnarPathOramBackend

        return ColumnarPathOramBackend(config, storage, rng, allow_missing)
    return PathOramBackend(config, storage, rng, allow_missing)


@dataclass
class AccessReceipt:
    """What one Backend call did, for timing/bandwidth attribution."""

    op: Op
    addr: int
    touched_tree: bool
    leaf: int = 0
    created_fresh: bool = False


@LEDGERS["backend"].bind()
class PathOramBackend:
    """One Path ORAM Backend bound to a storage tree and a stash; its
    counters are the backend ledger's slots, as the columnar one's are."""

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
        #: When True, a block never written before reads back as zeroes
        #: (factory-initialised memory); when False it is an error.
        self.allow_missing = allow_missing
        self.stash = Stash(config.stash_limit)
        self.ledger = LEDGERS["backend"].column()
        self._zero = bytes(config.block_bytes)
        # Storages that expose the tuple-free path read (TreeStorage) get
        # the fast replay path; byte-accurate/verified storages fall back
        # to the standard (level, bucket) interface.
        self._read_path_buckets = getattr(storage, "read_path_buckets", None)
        # Scratch depth-grouping lists reused across evictions (always
        # left empty between calls) to avoid per-access allocation.
        self._by_depth: List[List[Block]] = [[] for _ in range(config.levels + 1)]
        # Scratch (bucket, drained blocks) pairs in path order. Consulted
        # when eviction leaves blocks behind (rare) and by the error path,
        # which reattaches each drained list to its bucket so a failed
        # access rolls back to the exact pre-access tree.
        self._drained_lists: List[tuple] = []
        # Scratch snapshot of stash-resident blocks in dict order (same
        # slow-path reconciliation; always cleared between calls).
        self._resident_scratch: List[Block] = []
        # The stash never replaces its dict, so bind it once for the hot loop.
        self._stash_blocks = self.stash.blocks_by_addr

    # -- public API -----------------------------------------------------------

    def random_leaf(self) -> int:
        """Fresh uniform leaf label for remapping."""
        return self.rng.random_leaf(self.config.levels)

    def access(
        self,
        op: Op,
        addr: int,
        leaf: int = 0,
        new_leaf: int = 0,
        update: Optional[Callable[[Block], None]] = None,
        append_block: Optional[Block] = None,
    ) -> Optional[Block]:
        """Perform one Backend operation; returns the block of interest.

        For ``READ``/``WRITE`` a defensive copy is returned (the live block
        stays in the stash/tree). For ``READRMV`` the live block itself is
        returned and ownership passes to the caller. For ``APPEND`` the
        caller supplies ``append_block`` (with its current leaf already
        set) and None is returned.

        ``update`` is invoked on the live block after it is found and its
        leaf remapped — this is where the Frontend overwrites data, splices
        new PosMap entries, or attaches a fresh MAC, modelling in-stash
        modification.
        """
        self.access_count += 1
        if op is Op.APPEND:
            if append_block is None:
                raise ValueError("APPEND requires append_block")
            self.append_count += 1
            self.stash.add(append_block)
            self.stash.check_limit()
            return None

        self.tree_access_count += 1
        read_buckets = self._read_path_buckets
        if read_buckets is not None:
            path = read_buckets(leaf)
        else:
            path = [bucket for _level, bucket in self.storage.read_path(leaf)]

        # Fused drain + greedy eviction. Path blocks are grouped by legal
        # eviction depth as they are drained and only ever enter the stash
        # dict if they survive eviction (rare), eliminating two dict
        # operations per block on the dominant loop of replay. Grouping
        # order — resident stash blocks in insertion order, then drained
        # blocks root->leaf, then the (remapped) block of interest last —
        # and the LIFO candidate/pool placement below are exactly the
        # classic formulation run over a merged stash, so stash contents,
        # bucket contents and occupancy statistics are bit-identical to it.
        levels = self.config.levels
        cap = self.config.blocks_per_bucket
        stash_blocks = self._stash_blocks
        by_depth = self._by_depth

        # The stash entry is looked up but *not* removed: every success path
        # below rebuilds or clears the dict wholesale, so deferring the
        # removal costs nothing — and it means a fault anywhere in the try
        # block leaves the stash untouched (exact pre-access rollback).
        block = stash_blocks.get(addr)
        resident = self._resident_scratch
        drained_lists = self._drained_lists
        created_fresh = False
        saved_fields = None
        try:
            for b in stash_blocks.values():
                if b is block:
                    continue  # the block of interest is grouped last
                depth = levels - (b.leaf ^ leaf).bit_length()
                if depth < 0:
                    raise ValueError(
                        f"leaf label {b.leaf} out of range for {levels}-level tree"
                    )
                by_depth[depth].append(b)
                resident.append(b)

            for bucket in path:
                drained = bucket.blocks
                if drained:
                    bucket.blocks = []
                    drained_lists.append((bucket, drained))
                    for b in drained:
                        a = b.addr
                        if a == addr:
                            if block is not None:
                                raise ValueError(
                                    f"duplicate block {a:#x} in stash"
                                )
                            block = b
                            continue
                        # Stash-vs-path duplicate guard (a storage aliasing
                        # bug would corrupt the tree silently otherwise).
                        # Path-vs-path duplicates of a non-accessed address
                        # are not detectable without a per-access set; the
                        # Stash.add check still covers the APPEND path.
                        if a in stash_blocks:
                            raise ValueError(f"duplicate block {a:#x} in stash")
                        depth = levels - (b.leaf ^ leaf).bit_length()
                        if depth < 0:
                            raise ValueError(
                                f"leaf label {b.leaf} out of range for "
                                f"{levels}-level tree"
                            )
                        by_depth[depth].append(b)

            if block is None:
                if not self.allow_missing:
                    raise BlockNotFoundError(
                        f"block {addr:#x} absent from path {leaf} and stash"
                    )
                block = Block(addr, new_leaf, self._zero, None)
                created_fresh = True

            if not created_fresh:
                # Field snapshot for rollback (data/mac are immutable bytes,
                # so this is three references, not a copy).
                saved_fields = (block.leaf, block.data, block.mac)
            block.leaf = new_leaf
            if update is not None:
                update(block)

            result: Optional[Block]
            if op is Op.READRMV:
                result = block  # ownership moves to the Frontend (PLB)
            else:
                depth = levels - (block.leaf ^ leaf).bit_length()
                if depth < 0:
                    raise ValueError(
                        f"leaf label {block.leaf} out of range for "
                        f"{levels}-level tree"
                    )
                by_depth[depth].append(block)  # grouped last, like a re-insert
                result = block.copy()
        except BaseException as exc:
            # BaseException, not Exception: a KeyboardInterrupt (or an
            # injected kill) mid-update must roll back too — the re-raise
            # means nothing is ever swallowed. A freshly materialised
            # zero block never existed before this access, so it is
            # simply discarded. A restore failure of an *expected* kind
            # (RESTORE_FAILURES) is chained onto the original error as a
            # note instead of replacing it; programming errors in the
            # restore path itself still propagate.
            try:
                self._restore(
                    None if created_fresh else block, saved_fields
                )
            except RESTORE_FAILURES as restore_exc:
                exc.add_note(
                    f"state restoration also failed: {restore_exc!r}"
                )
            raise

        # Greedy placement, deepest level first; candidates LIFO, then the
        # pool of deeper leftovers LIFO. Stash membership is reconciled
        # wholesale afterwards instead of per placed block.
        pool: List[Block] = []
        pool_extend = pool.extend
        pool_pop = pool.pop
        for level in range(levels, -1, -1):
            candidates = by_depth[level]
            if not (candidates or pool):
                continue
            slots = path[level].blocks
            free = cap - len(slots)
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
            # Slow path: some blocks stay behind. Rebuild the stash dict in
            # original merge order — resident survivors first (their
            # original relative order), drained survivors in drain order,
            # the block of interest last — so future grouping order matches
            # the merged-stash semantics exactly.
            leftover = {id(b) for b in pool}
            stash_blocks.clear()
            for b in resident:
                if id(b) in leftover:
                    stash_blocks[b.addr] = b
            for _bucket, drained in drained_lists:
                for b in drained:
                    if id(b) in leftover and b is not block:
                        stash_blocks[b.addr] = b
            if op is not Op.READRMV and id(block) in leftover:
                stash_blocks[addr] = block
        elif stash_blocks:
            # Common fast path: everything was placed back onto the path.
            stash_blocks.clear()
        resident.clear()
        drained_lists.clear()

        self.storage.write_path(leaf)
        self.stash.check_limit()
        return result

    def _restore(self, block: Optional[Block], saved_fields) -> None:
        """Roll a half-finished access back to the exact pre-access state.

        Drained block lists are reattached to their buckets (same list
        objects, same order), the block of interest's remap/update is
        undone from the field snapshot, and the scratch lists are cleared.
        The stash dict was never mutated, so after this the stash snapshot
        and the tree digest both equal their pre-access values and the
        backend remains usable.
        """
        for group in self._by_depth:
            group.clear()
        for bucket, drained in self._drained_lists:
            bucket.blocks = drained
        self._drained_lists.clear()
        self._resident_scratch.clear()
        if block is not None and saved_fields is not None:
            block.leaf, block.data, block.mac = saved_fields

    # -- introspection ------------------------------------------------------------

    @property
    def bytes_moved(self) -> int:
        """Total bytes moved on the tree interface."""
        return self.storage.bytes_moved

    def stash_occupancy(self) -> int:
        """Current stash size in blocks."""
        return len(self.stash)

    def stash_snapshot(self):
        """Ordered (addr, leaf, data, mac) image of the stash.

        The differential harness compares this tuple across backend
        implementations after every access; insertion order is part of
        the contract (it fixes future eviction grouping order).
        """
        return tuple(
            (b.addr, b.leaf, b.data, b.mac)
            for b in self.stash.blocks_by_addr.values()
        )
