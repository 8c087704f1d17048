"""ColumnarTreeStorage / ColumnarStash / backend-factory unit tests.

The differential harness (``test_columnar_differential.py``) proves
whole-system bit-identity; these tests pin the columnar layer's own
contracts — slot arena management, geometry, accounting, observer
parity, and backend dispatch.
The storage itself is pure Python; the columnar backend is the native
``AccessKernel``, so the tests that drive one skip without the extension.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backend.columnar import ColumnarPathOramBackend
from repro.backend.ops import Op
from repro.backend.stash import OccupancyStats
from repro.backend.path_oram import PathOramBackend, make_backend
from repro.config import OramConfig
from repro.errors import NativeKernelUnavailable, StashOverflowError
from repro.presets import build_frontend
from repro.sim.native import unavailable_reason
from repro.storage.block import Block
from repro.storage.columnar import CHUNK_SLOTS, ColumnarTreeStorage
from repro.storage.snapshot import tree_digest, tree_records
from repro.storage.tree import TreeStorage
from repro.utils.rng import DeterministicRng

from lockstep import CORE, needs_core

#: Every built-in scheme: the five presets and the two figure points.
BUILT_IN_SCHEMES = (
    "R_X8", "P_X16", "PC_X32", "PI_X8", "PIC_X32", "PC_X64", "phantom_4kb",
)


class TestSlotArena:
    @pytest.fixture
    def store(self):
        return ColumnarTreeStorage(OramConfig(num_blocks=128, block_bytes=32))

    def test_alloc_roundtrip(self, store):
        slot = store.alloc(7, 3, b"\xAB" * 32, b"m" * 4)
        block = store.block_at_slot(slot)
        assert (block.addr, block.leaf, block.data, block.mac) == (
            7, 3, b"\xAB" * 32, b"m" * 4,
        )

    def test_alloc_zero_payload_default(self, store):
        slot = store.alloc(1, 0)
        assert store.payload(slot) == bytes(32)

    def test_released_slot_is_recycled_and_rezeroed_on_alloc(self, store):
        slot = store.alloc(1, 0, b"\xFF" * 32)
        store.release(slot)
        again = store.alloc(2, 0)
        assert again == slot
        assert store.payload(again) == bytes(32)

    def test_arena_grows_beyond_one_chunk(self, store):
        slots = [store.alloc(i, 0) for i in range(CHUNK_SLOTS + 10)]
        assert len(set(slots)) == len(slots)
        assert store.block_at_slot(slots[-1]).addr == CHUNK_SLOTS + 9

    @pytest.mark.parametrize(
        "header", [(0, -1), (0, CHUNK_SLOTS + 1), (1, 5)], ids=str
    )
    def test_a_corrupt_free_column_is_refused(self, store, header):
        """A high-water mark outside the arena, or a released slot id
        that is no slot, claims nothing: refused in the kernel's words."""
        store.alloc(1, 0)
        free = store._free
        free[0], free[1] = header
        free[2] = -3
        before = free.tolist()
        with pytest.raises(IndexError, match=r"free slot -?\d+ outside the arena"):
            store.alloc(2, 0)
        assert free.tolist() == before

    def test_set_payload_validates_length(self, store):
        slot = store.alloc(1, 0)
        with pytest.raises(ValueError, match="payload must be"):
            store.set_payload(slot, b"short")

    @needs_core
    def test_find_block(self, store):
        backend = ColumnarPathOramBackend(store.config, store, DeterministicRng(1))
        backend.access(Op.WRITE, 5, 0, 3)
        located = store.find_block(5)
        assert located is not None
        index, slot = located
        assert store.addr_col[slot] == 5
        assert slot in store.bucket(index)
        assert store.find_block(999) is None


class StackModel:
    """The arena's claim order as one plain LIFO of every free slot: each
    growth pushes a chunk's slots highest first, a release pushes its
    slot, a claim pops. The storage keeps no such stack (fresh slots come
    from a high-water mark); it must claim in exactly this order."""

    def __init__(self):
        self.stack = []
        self.arena = 0

    def claim(self) -> int:
        if not self.stack:
            self.stack.extend(
                range(self.arena + CHUNK_SLOTS - 1, self.arena - 1, -1)
            )
            self.arena += CHUNK_SLOTS
        return self.stack.pop()

    def release(self, slot: int) -> None:
        self.stack.append(slot)

    def check(self, store) -> None:
        """The storage's free slots are the model's, in claim order."""
        assert len(store.addr_col) == self.arena
        assert store.free_slots() == self.stack[::-1]


#: A run of claims and releases: a seed for the choices, how many steps,
#: and how often a step releases a live slot instead of claiming one.
#: 1 400 steps cross a chunk boundary at every share but the largest,
#: and every run below includes two that do.
claim_runs = dict(
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 1400),
    release_share=st.sampled_from([0.0, 0.05, 0.3, 0.6]),
)


class TestClaimOrder:
    """Released slots last-in first-out, then fresh slots ascending —
    through the Python tier's ``alloc`` / ``release`` and through the
    kernel's first touches, APPENDs and READRMV releases alike."""

    @settings(max_examples=30, deadline=None)
    @given(**claim_runs)
    @example(seed=0, steps=1400, release_share=0.0)
    @example(seed=1, steps=1400, release_share=0.3)
    def test_python_tier(self, seed, steps, release_share):
        store = ColumnarTreeStorage(OramConfig(num_blocks=64, block_bytes=16))
        model = StackModel()
        choose = random.Random(seed)
        live = []
        for step in range(steps):
            if live and choose.random() < release_share:
                slot = live.pop(choose.randrange(len(live)))
                store.release(slot)
                model.release(slot)
            else:
                slot = store.alloc(step, 0)
                assert slot == model.claim()
                live.append(slot)
        model.check(store)

    @needs_core
    @settings(max_examples=15, deadline=None)
    @given(**claim_runs)
    @example(seed=0, steps=1400, release_share=0.0)
    @example(seed=1, steps=1400, release_share=0.3)
    def test_kernel(self, seed, steps, release_share):
        config = OramConfig(num_blocks=2**12, block_bytes=16)
        backend = ColumnarPathOramBackend(
            config, ColumnarTreeStorage(config), DeterministicRng(seed)
        )
        store = backend.storage
        model = StackModel()
        choose = random.Random(seed)
        leaf_of = {}
        for addr in range(steps):
            if leaf_of and choose.random() < release_share:
                victim = choose.choice(list(leaf_of))
                slot = store.addr_col.index(victim)
                backend.access(Op.READRMV, victim, leaf_of.pop(victim), 0)
                model.release(slot)
                continue
            leaf = backend.random_leaf()
            if choose.random() < 0.1:
                backend.access(
                    Op.APPEND, addr, append_block=Block(addr, leaf, bytes(16))
                )
            else:  # a first touch
                path = choose.randrange(config.num_leaves)
                backend.access(Op.READ, addr, path, leaf)
            leaf_of[addr] = leaf
            assert store.addr_col.index(addr) == model.claim()
        model.check(store)


class TestGeometryAndAccounting:
    @pytest.fixture
    def config(self):
        return OramConfig(num_blocks=128, block_bytes=32)

    @settings(max_examples=40, deadline=None)
    @given(levels=st.integers(min_value=1, max_value=12), data=st.data())
    def test_path_indices_match_tree_storage(self, levels, data):
        config = OramConfig(num_blocks=1 << (levels + 1), block_bytes=32)
        obj, col = TreeStorage(config), ColumnarTreeStorage(config)
        leaf = data.draw(st.integers(min_value=0, max_value=config.num_leaves - 1))
        assert col.path_indices(leaf) == obj.path_indices(leaf)

    def test_out_of_range_leaf_rejected(self, config):
        col = ColumnarTreeStorage(config)
        for leaf in (-1, config.num_leaves):
            with pytest.raises(ValueError):
                col.path_indices(leaf)
            with pytest.raises(ValueError):
                col.read_path_slots(leaf)

    def test_bandwidth_accounting_matches_tree_storage(self, config):
        obj, col = TreeStorage(config), ColumnarTreeStorage(config)
        obj.read_path_buckets(1)
        obj.write_path(1)
        obj.read_path_buckets(5)
        col.read_path_slots(1)
        col.write_path_slots(1)
        col.read_path_slots(5)
        assert col.buckets_read == obj.buckets_read
        assert col.buckets_written == obj.buckets_written
        assert col.bytes_moved == obj.bytes_moved
        col.reset_counters()
        assert col.bytes_moved == 0

    def test_observer_sees_identical_traffic(self, config):
        class Recorder:
            def __init__(self):
                self.events = []

            def on_path_read(self, leaf, indices):
                self.events.append(("r", leaf, tuple(indices)))

            def on_path_write(self, leaf, indices):
                self.events.append(("w", leaf, tuple(indices)))

        a, b = Recorder(), Recorder()
        obj = TreeStorage(config, observer=a)
        col = ColumnarTreeStorage(config, observer=b)
        obj.read_path_buckets(2)
        obj.write_path(2)
        col.read_path_slots(2)
        col.write_path_slots(2)
        assert a.events == b.events

    @needs_core
    def test_occupancy_counts_tree_blocks_only(self, config):
        col = ColumnarTreeStorage(config)
        backend = ColumnarPathOramBackend(config, col, DeterministicRng(1))
        backend.access(Op.WRITE, 1, 0, 2)
        backend.access(
            Op.APPEND, 9, append_block=Block(9, 1, bytes(config.block_bytes))
        )
        # Block 9 sits in the stash (arena-resident but not in the tree).
        assert col.occupancy() == 1
        assert backend.stash_occupancy() == 1


class TestBucketRecords:
    def test_replace_and_read_records(self):
        config = OramConfig(num_blocks=64, block_bytes=16)
        col = ColumnarTreeStorage(config)
        records = ((5, 1, b"x" * 16, None), (6, 2, b"y" * 16, b"mac!"))
        col.replace_bucket_records(0, records)
        assert col.bucket_records(0) == records
        col.replace_bucket_records(0, ())
        assert col.bucket_records(0) == ()

    @pytest.mark.parametrize("storage_type", [TreeStorage, ColumnarTreeStorage])
    def test_more_records_than_z_are_refused(self, storage_type):
        """A bucket has Z slots on every storage: a restore script may
        not leave a tree whose digest describes one that cannot exist.
        Refused before anything is freed or claimed."""
        config = OramConfig(num_blocks=64, block_bytes=16, blocks_per_bucket=2)
        store = storage_type(config)
        legal = ((5, 1, b"x" * 16, None), (6, 2, b"y" * 16, b"mac!"))
        store.replace_bucket_records(3, legal)
        before = tree_digest(store), getattr(store, "_free", [None])[0]
        with pytest.raises(
            ValueError, match=r"bucket 3 cannot hold 3 blocks \(Z = 2\)"
        ):
            store.replace_bucket_records(3, legal + ((7, 0, b"z" * 16, None),))
        assert store.bucket_records(3) == legal
        assert (tree_digest(store), getattr(store, "_free", [None])[0]) == before

    @needs_core
    def test_tree_records_match_object_after_identical_accesses(self):
        config = OramConfig(num_blocks=64, block_bytes=16)
        obj_backend = PathOramBackend(
            config, TreeStorage(config), DeterministicRng(1)
        )
        col_backend = ColumnarPathOramBackend(
            config, ColumnarTreeStorage(config), DeterministicRng(1)
        )
        rng = DeterministicRng(3)
        posmap = {}
        for _ in range(120):
            addr = rng.randrange(32)
            new_leaf = rng.random_leaf(config.levels)
            for backend in (obj_backend, col_backend):
                backend.access(Op.READ, addr, posmap.get(addr, 0), new_leaf)
            posmap[addr] = new_leaf
        assert tree_records(obj_backend.storage) == tree_records(col_backend.storage)
        assert tree_digest(obj_backend.storage) == tree_digest(col_backend.storage)


@needs_core
class TestColumnarStash:
    """The stash column as the backend's kernel fills it (``APPEND``)."""

    @pytest.fixture
    def backend(self):
        config = OramConfig(num_blocks=64, block_bytes=16, stash_limit=4)
        return ColumnarPathOramBackend(
            config, ColumnarTreeStorage(config), DeterministicRng(1)
        )

    def test_add_and_introspect(self, backend):
        stash = backend.stash
        for block in (Block(3, 1, b"a" * 16, None), Block(5, 2, b"b" * 16, b"mm")):
            backend.access(Op.APPEND, block.addr, append_block=block)
        assert len(stash) == 2
        assert stash.blocks()[1] == Block(5, 2, b"b" * 16, b"mm")
        assert [b.addr for b in stash] == [3, 5]  # insertion order

    def test_duplicate_add_raises(self, backend):
        backend.access(Op.APPEND, 3, append_block=Block(3, 1, b"a" * 16, None))
        with pytest.raises(ValueError, match="duplicate block"):
            backend.access(
                Op.APPEND, 3, append_block=Block(3, 9, b"c" * 16, None)
            )
        assert len(backend.stash) == 1

    def test_check_limit_records_and_raises(self, backend):
        for addr in range(4):
            backend.access(
                Op.APPEND, addr, append_block=Block(addr, 0, b"z" * 16, None)
            )
        with pytest.raises(StashOverflowError):
            backend.access(Op.APPEND, 4, append_block=Block(4, 0, b"z" * 16, None))
        assert backend.stash.occupancy_stats.max == 5

    def test_backend_stash_overflow_parity(self):
        """Both backends overflow at the same step with a tiny limit."""
        config = OramConfig(num_blocks=64, block_bytes=16, stash_limit=2)
        obj = PathOramBackend(config, TreeStorage(config), DeterministicRng(1))
        col = ColumnarPathOramBackend(
            config, ColumnarTreeStorage(config), DeterministicRng(1)
        )
        failures = []
        for backend in (obj, col):
            step = None
            for i in range(4):
                try:
                    backend.access(
                        Op.APPEND,
                        100 + i,
                        append_block=Block(100 + i, 0, bytes(16)),
                    )
                except StashOverflowError:
                    step = i
                    break
            failures.append(step)
        assert failures[0] == failures[1] == 2


@needs_core
class TestErrorPaths:
    """The access kernel's guard rails."""

    @pytest.fixture
    def backend(self):
        config = OramConfig(num_blocks=64, block_bytes=16)
        return ColumnarPathOramBackend(
            config, ColumnarTreeStorage(config), DeterministicRng(1)
        )

    def test_out_of_range_leaf_detected(self, backend):
        backend.access(
            Op.APPEND,
            3,
            append_block=Block(3, backend.config.num_leaves * 4, bytes(16)),
        )
        with pytest.raises(ValueError, match="out of range"):
            backend.access(Op.READ, 8, 0, 1)

    def test_stash_duplicate_on_path_detected(self, backend):
        store = backend.storage
        backend.access(Op.WRITE, 5, 0, 0)  # lands somewhere on path 0
        backend.access(Op.APPEND, 9, append_block=Block(9, 0, bytes(16)))
        # Forge an aliased copy of the stash-resident block in the tree.
        store.replace_bucket_records(0, ((9, 0, bytes(16), None),))
        with pytest.raises(ValueError, match="duplicate block"):
            backend.access(Op.READ, 5, 0, 1)

    def test_duplicate_interest_detected(self, backend):
        store = backend.storage
        backend.access(Op.APPEND, 7, append_block=Block(7, 0, bytes(16)))
        store.replace_bucket_records(0, ((7, 0, bytes(16), None),))
        with pytest.raises(ValueError, match="duplicate block"):
            backend.access(Op.READ, 7, 0, 1)

    def test_out_of_range_leaf_restores_state(self, backend):
        """The drain-time failure rolls back exactly: the stash snapshot
        and the tree digest equal their pre-access values, and the backend
        stays usable."""
        store = backend.storage
        config = backend.config
        rng = DeterministicRng(3)
        posmap = {}
        for addr in range(16):
            new_leaf = rng.random_leaf(config.levels)
            backend.access(Op.WRITE, addr, posmap.get(addr, 0), new_leaf)
            posmap[addr] = new_leaf
        backend.access(
            Op.APPEND,
            50,
            append_block=Block(50, config.num_leaves * 4, bytes(16)),
        )
        before_stash = backend.stash_snapshot()
        before_tree = tree_digest(store)
        with pytest.raises(ValueError, match="out of range"):
            backend.access(Op.READ, 3, posmap[3], 1)
        assert backend.stash_snapshot() == before_stash
        assert tree_digest(store) == before_tree
        # Repair the poison and the backend keeps working.
        (slot,) = [s for s in backend.stash.resident() if store.addr_col[s] == 50]
        store.leaf_col[slot] = 0
        assert backend.access(Op.READ, 3, posmap[3], 2) is not None


class TestBackendFactory:
    @needs_core
    def test_columnar_storage_selects_columnar_backend(self):
        config = OramConfig(num_blocks=64, block_bytes=16)
        backend = make_backend(
            config, ColumnarTreeStorage(config), DeterministicRng(1)
        )
        assert isinstance(backend, ColumnarPathOramBackend)

    def test_bucket_storages_select_object_backend(self):
        from repro.crypto.mac import Mac
        from repro.integrity.adapter import MerkleVerifiedStorage

        config = OramConfig(num_blocks=64, block_bytes=16)
        for storage in (
            TreeStorage(config),
            MerkleVerifiedStorage(TreeStorage(config), Mac(b"k" * 16)),
        ):
            backend = make_backend(config, storage, DeterministicRng(1))
            assert isinstance(backend, PathOramBackend)

    @needs_core
    def test_presets_and_env_select_columnar(self):
        frontend = build_frontend("PC_X32", num_blocks=2**10, storage="columnar")
        assert isinstance(frontend.backend, ColumnarPathOramBackend)
        # The fast tier's storage, when the spec leaves it at default.
        frontend = build_frontend("P_X16", num_blocks=2**10)
        assert isinstance(frontend.backend, ColumnarPathOramBackend)
        recursive = build_frontend("R_X8", num_blocks=2**10)
        assert all(
            isinstance(b, ColumnarPathOramBackend) for b in recursive.backends
        )
        phantom = build_frontend("phantom_4kb", num_blocks=2**6, block_bytes=256)
        assert isinstance(phantom.backend, ColumnarPathOramBackend)

    def test_the_reference_tier_builds_object_storage(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        backend = build_frontend("PC_X32", num_blocks=2**10).backend
        assert type(backend) is PathOramBackend
        assert type(backend.storage) is TreeStorage
        recursive = build_frontend("R_X8", num_blocks=2**10)
        assert all(type(b) is PathOramBackend for b in recursive.backends)

    def test_a_columnar_backend_without_the_core_names_the_build(
        self, monkeypatch
    ):
        """Its access is the C kernel: there is nothing to fall back to."""
        monkeypatch.setenv("REPRO_NATIVE", "off")
        config = OramConfig(num_blocks=64, block_bytes=16)
        storage = ColumnarTreeStorage(config)
        with pytest.raises(
            NativeKernelUnavailable, match="python setup.py build_ext --inplace"
        ):
            ColumnarPathOramBackend(config, storage, DeterministicRng(1))
        with pytest.raises(NativeKernelUnavailable, match="REPRO_NATIVE=off"):
            build_frontend("PC_X32", num_blocks=2**10, storage="columnar")

    @pytest.mark.parametrize("policy, storage, tier", (
        ("off", "default", "reference"),
        ("require", "default", "fast"),
        ("require", "object", "reference"),
        ("off", "columnar", None),
    ))
    @pytest.mark.parametrize("scheme", BUILT_IN_SCHEMES)
    def test_every_scheme_builds_the_tier_it_resolves(
        self, monkeypatch, scheme, policy, storage, tier
    ):
        """Storage follows the tier where the spec leaves it at
        ``default`` and an explicit one pins it; every backend of a fast
        frontend has its kernel and kernel-fed occupancy stats from birth,
        and columnar storage without the core has nothing to fall back
        to."""
        if policy == "require" and CORE is None:
            pytest.skip(unavailable_reason())
        monkeypatch.setenv("REPRO_NATIVE", policy)
        geometry = (
            dict(num_blocks=2**6, block_bytes=256)
            if scheme == "phantom_4kb" else dict(num_blocks=2**10)
        )
        if tier is None:
            with pytest.raises(NativeKernelUnavailable, match="REPRO_NATIVE=off"):
                build_frontend(scheme, storage=storage, **geometry)
            return
        frontend = build_frontend(scheme, storage=storage, **geometry)
        assert getattr(frontend, "_kernel", None) is None
        backends = getattr(frontend, "backends", None) or [frontend.backend]
        for backend in backends:
            if tier == "fast":
                assert type(backend) is ColumnarPathOramBackend
                assert type(backend.storage) is ColumnarTreeStorage
                assert isinstance(backend._kernel, CORE.AccessKernel)
                assert type(backend.stash.occupancy_stats) is OccupancyStats
            else:
                assert type(backend) is PathOramBackend
                assert type(backend.storage) is TreeStorage
                assert not hasattr(backend, "_kernel")

    def test_spec_rejects_unknown_storage(self):
        from repro.errors import SpecError
        from repro.spec import SchemeSpec

        with pytest.raises(SpecError, match="unknown storage"):
            SchemeSpec(storage="quantum")
