"""The compiled replay core: bit-identity, dispatch policy, hardening.

Coverage for ``repro.sim.native._replay_core`` below the replay
pipeline (``tests/test_replay_differential.py`` locks the whole fast
tier, kernels engaged, against the reference tier per batch):

- **Backend lockstep** — a columnar backend on its native
  ``AccessKernel`` against the object ``PathOramBackend`` reference:
  stash snapshot (order included), tree digest, every counter,
  ``occupancy_stats`` and the observer's event log after every access,
  over READ/WRITE/READRMV/APPEND, Z in {2, 4}, stash pressure that
  takes the leftover-rebuild path and allocations that cross an arena
  growth — each access entering the C module exactly once.
- **Error-path identity** — the C kernel raises the byte-identical
  messages (duplicate block, out-of-range leaf, absent block) and the
  transactional rollback — a failing or interrupted ``update`` included
  — leaves both backends in equal, usable, pre-access state.
- **Dispatch policy** — ``REPRO_NATIVE`` off-values, the silent
  fallback to the reference tier when the extension is unbuilt or stale,
  an explicit ``compiled`` and ``require`` mode escalating to
  :class:`~repro.errors.NativeKernelUnavailable`.

Tests that need the built extension skip when it is absent; the CI
fast lane's ``require`` leg builds it and runs this file under
``REPRO_NATIVE=require`` so a silently-unbuilt extension cannot hide
behind the skips there.
"""

import gc
import warnings
from array import array
from contextlib import contextmanager

import pytest

import repro.sim.native as native_pkg
from repro.adversary.observer import TraceObserver
from repro.backend.columnar import ColumnarPathOramBackend
from repro.backend.ops import Op
from repro.backend.path_oram import PathOramBackend
from repro.config import OramConfig
from repro.errors import (
    BlockNotFoundError,
    IntegrityViolationError,
    NativeKernelUnavailable,
    StashOverflowError,
)
from repro.presets import build_frontend
from repro.settings import Settings
from repro.sim.engine import ReplayEngine
from repro.sim.native import load_native_core
from repro.sim.replay import (
    resolve_replay_mode, resolve_tier, translate_block_addrs,
)
from repro.sim.system import replay_trace
from repro.sim.timing import OramTimingModel
from repro.storage.block import Block
from repro.storage.columnar import CHUNK_SLOTS, ColumnarTreeStorage
from repro.storage import make_storage
from repro.storage.snapshot import tree_digest, tree_records
from repro.storage.tree import TreeStorage
from repro.utils.rng import DeterministicRng

from test_replay_differential import BLOCKS, frontend_digests, make_trace

CORE = load_native_core()
needs_core = pytest.mark.skipif(
    CORE is None,
    reason="compiled core not built (python setup.py build_ext --inplace)",
)


#: What an install without the extension memoises (see ``native_core``).
UNBUILT = (None, "the native extension is not built")


class CountingKernel:
    """Wraps an ``AccessKernel``, counting the calls that enter C."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.entries = 0

    def access(self, *args):
        self.entries += 1
        return self.kernel.access(*args)


def native_pair(config: OramConfig, seed: int = 7, allow_missing: bool = True):
    """The object reference and a columnar backend (its access the
    kernel's), same seeds, each with an observer recording its path reads
    and writes."""
    ref_events, nat_events = TraceObserver(), TraceObserver()
    ref = PathOramBackend(
        config, TreeStorage(config, observer=ref_events.for_tree(0)),
        DeterministicRng(seed), allow_missing,
    )
    nat = ColumnarPathOramBackend(
        config, ColumnarTreeStorage(config, observer=nat_events.for_tree(0)),
        DeterministicRng(seed), allow_missing,
    )
    nat._kernel = CountingKernel(nat._kernel)
    ref.events, nat.events = ref_events.events, nat_events.events
    return ref, nat


def full_state(backend):
    """Everything the bit-identity contract names, for one backend."""
    stats = backend.stash.occupancy_stats
    storage = backend.storage
    return (
        backend.stash_snapshot(),
        tree_digest(storage),
        (backend.access_count, backend.tree_access_count,
         backend.append_count, storage.buckets_read,
         storage.buckets_written),
        (stats.count, repr(stats.mean), repr(stats.variance), stats.max,
         stats.min),
        list(backend.events),
    )


SMALL = OramConfig(num_blocks=256, block_bytes=32)
PRESSURE_Z2 = OramConfig(num_blocks=256, block_bytes=16, blocks_per_bucket=2)
#: More blocks than one 512-slot arena chunk: first touches outgrow it.
GROWTH = OramConfig(num_blocks=2048, block_bytes=8)


# ---------------------------------------------------------------------------
# Backend lockstep (native drain/evict vs the scalar columnar reference)
# ---------------------------------------------------------------------------


@needs_core
class TestNativeBackendLockstep:
    def drive(self, config, steps, seed, with_removal=False, num_addrs=None):
        """Random ops against both backends; compare after every access."""
        ref, nat = native_pair(config, seed=seed)
        rng = DeterministicRng(seed * 31 + 5)
        posmap = {}
        removed_ref, removed_nat = {}, {}
        if num_addrs is None:
            num_addrs = config.num_blocks // 4
        for index in range(steps):
            roll = rng.random()
            if with_removal and removed_ref and roll < 0.2:
                addr = sorted(removed_ref)[rng.randrange(len(removed_ref))]
                block = removed_ref.pop(addr)
                ref.access(Op.APPEND, addr, append_block=block)
                nat.access(Op.APPEND, addr, append_block=removed_nat.pop(addr))
                # The PosMap still maps the address to the leaf assigned
                # at removal time (the PLB's bookkeeping).
                posmap[addr] = block.leaf
            else:
                addr = rng.randrange(num_addrs)
                while addr in removed_ref:
                    addr = rng.randrange(num_addrs)
                leaf = posmap.get(addr, 0)
                new_leaf = rng.random_leaf(config.levels)
                if with_removal and roll > 0.85:
                    a = ref.access(Op.READRMV, addr, leaf, new_leaf)
                    b = nat.access(Op.READRMV, addr, leaf, new_leaf)
                    assert (a.addr, a.leaf, a.data, a.mac) == (
                        b.addr, b.leaf, b.data, b.mac
                    ), index
                    removed_ref[addr], removed_nat[addr] = a, b
                    posmap.pop(addr, None)
                elif roll < 0.5:
                    payload = bytes([rng.randrange(256)]) * config.block_bytes

                    def update(block, payload=payload):
                        block.data = payload
                        block.mac = payload[:4]

                    ref.access(Op.WRITE, addr, leaf, new_leaf, update=update)
                    nat.access(Op.WRITE, addr, leaf, new_leaf, update=update)
                    posmap[addr] = new_leaf
                else:
                    a = ref.access(Op.READ, addr, leaf, new_leaf)
                    b = nat.access(Op.READ, addr, leaf, new_leaf)
                    assert a == b, index
                    posmap[addr] = new_leaf
            assert full_state(ref) == full_state(nat), index
            # One C call per access, APPENDs included.
            assert nat._kernel.entries == index + 1
        return ref, nat

    @pytest.mark.parametrize("seed", (1, 9, 40))
    def test_randomized_traces(self, seed):
        self.drive(SMALL, steps=200, seed=seed)

    @pytest.mark.parametrize("seed", (2, 17))
    def test_stash_pressure_forces_slow_path_rebuild(self, seed):
        """Z=2 leaves placement leftovers, exercising the leftover pool
        and the merge-order stash rebuild."""
        ref, _nat = self.drive(PRESSURE_Z2, steps=250, seed=seed)
        assert ref.stash.occupancy_stats.max > 4

    @pytest.mark.parametrize("seed", (3, 23))
    def test_removal_and_append_mix(self, seed):
        self.drive(SMALL, steps=220, seed=seed, with_removal=True)

    def test_fresh_allocations_cross_an_arena_growth(self):
        """First touches of >512 distinct blocks outgrow the arena's
        first chunk mid-run; the kernel grows it between two exports."""
        _ref, nat = self.drive(
            GROWTH, steps=700, seed=5, with_removal=True, num_addrs=2048
        )
        assert len(nat.storage.addr_col) > CHUNK_SLOTS

    def test_no_interpreted_step_runs_under_the_kernel(self, monkeypatch):
        """Path read, slot alloc, payload I/O and write-back all happen
        inside the one C call: the storage's Python methods never run."""
        _ref, nat = native_pair(SMALL)

        def unreachable(*args, **kwargs):
            raise AssertionError("interpreted storage step under the kernel")

        for name in ("read_path_slots", "write_path_slots", "alloc",
                     "release", "payload", "set_payload"):
            monkeypatch.setattr(nat.storage, name, unreachable)
        removed = nat.access(Op.READRMV, 7, 0, 3)
        nat.access(Op.APPEND, 7, append_block=removed)
        nat.access(Op.WRITE, 7, 3, 1, update=lambda block: None)
        assert nat.access(Op.READ, 7, 1, 2).addr == 7
        assert nat._kernel.entries == 4

    def test_a_preset_frontend_enters_c_once_per_tree_access(self):
        """No ``ReplayEngine``, nothing enabled: a PLB frontend driven
        through its own Python ``access`` still reaches the tree only
        through the backend's kernel, one C call per tree access."""
        frontend = build_frontend(
            "PC_X32", num_blocks=BLOCKS, rng=DeterministicRng(7),
            storage="columnar", onchip_entries=4, plb_capacity_bytes=512,
        )
        assert frontend._kernel is None
        backend = frontend.backend
        backend._kernel = CountingKernel(backend._kernel)
        rng = DeterministicRng(3)
        for _ in range(300):
            addr = rng.randrange(BLOCKS)
            if rng.random() < 0.3:
                frontend.access(addr, Op.WRITE, bytes(64))
            else:
                frontend.access(addr, Op.READ)
        # Every backend call is one C call: the tree accesses and the
        # PLB victims' APPENDs.
        assert backend._kernel.entries == backend.access_count == (
            backend.tree_access_count + backend.append_count
        )
        assert backend.tree_access_count == frontend.stats.tree_accesses > 500
        assert backend.append_count > 0


# ---------------------------------------------------------------------------
# No Python object on a tree access (counts, not wall time)
# ---------------------------------------------------------------------------


@contextmanager
def collector_off():
    """``gc.get_count()[0]`` is net tracked allocations since the last
    collection — a count that only means something while none runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestNoObjectPerTreeAccess:
    @needs_core
    def test_backend_accesses_leave_nothing_for_the_collector(self):
        """2 000 first touches through the Python-facing ``access``: each
        returns a Block (dropped at once) and every 512th grows the
        arena a chunk; nothing else the collector tracks is made, where
        the bucket-list tree made ~7 lists per access."""
        config = OramConfig(num_blocks=4096, block_bytes=16)
        backend = ColumnarPathOramBackend(
            config, ColumnarTreeStorage(config), DeterministicRng(2)
        )
        rng = DeterministicRng(5)
        leaves = [rng.random_leaf(config.levels) for _ in range(2101)]
        for addr in range(100):
            backend.access(Op.READ, addr, leaves[addr + 1], leaves[addr])
        with collector_off():
            before = gc.get_count()[0]
            for addr in range(100, 2100):
                backend.access(Op.READ, addr, leaves[addr + 1], leaves[addr])
            moved = gc.get_count()[0] - before
        assert backend.tree_access_count == 2100
        assert moved < 64

    @needs_core
    def test_a_replay_slice_allocates_less_than_an_object_per_event(self):
        """A warmed P_X16 slice of 400 events, C to C: the result list,
        PLB entries coming (refill) and going (victim) — under one
        tracked allocation per event net, where the parent made
        2 700-3 200 per slice."""
        frontend = build_frontend(
            "P_X16", num_blocks=2**14, rng=DeterministicRng(7),
            storage="columnar",
        )
        ReplayEngine(frontend, OramTimingModel(1000.0)).enable_native(CORE)
        assert isinstance(frontend._kernel, CORE.FrontendKernel)
        rng = DeterministicRng(9)
        addrs = [rng.randrange(2**14) for _ in range(2400)]
        writes = [False] * 2400
        loop = CORE.run_access_loop
        loop(frontend.access, addrs[:2000], writes, Op.READ, Op.WRITE, b"")
        with collector_off():
            before = gc.get_count()[0]
            counts = loop(
                frontend.access, addrs[2000:], writes, Op.READ, Op.WRITE, b""
            )
            moved = gc.get_count()[0] - before
        assert len(counts) == 400 and frontend.stats.accesses == 2400
        assert moved < 400

    def test_no_container_scales_with_the_tree(self, fast_tier):
        """A 2^20-block PC_X32 after 2 000 events: nothing the storage or
        the stash holds is a list, dict or tuple whose length follows the
        number of buckets, of leaves, or of buckets touched (``mac_col``
        and the payload chunk table follow the *arena* — the blocks that
        exist — and are the named exceptions), and the replay leaves the
        interpreter with about as many objects as it found."""
        frontend = build_frontend(
            "PC_X32", num_blocks=2**20, rng=DeterministicRng(7),
            storage="columnar",
        )
        engine = ReplayEngine.for_mode(frontend, OramTimingModel(1000.0))
        assert frontend._kernel is not None
        trace = make_trace(3, events=2000, blocks=2**20)
        gc.collect()
        before = len(gc.get_objects())
        engine.run_trace(trace)
        gc.collect()
        grown = len(gc.get_objects()) - before
        backend = frontend.backend
        assert backend.tree_access_count > 2000
        arena_scaled = {"mac_col", "_chunks"}
        for owner in (backend.storage, backend.stash):
            for name, value in vars(owner).items():
                if isinstance(value, (list, dict, tuple)) and name not in arena_scaled:
                    assert len(value) <= 64, (type(owner).__name__, name)
        assert backend.storage.occupancy() > 1000  # buckets were touched
        assert grown < 2000


@needs_core
class TestNoObjectPerRequest:
    """The frontend sibling: a processor request on the ``FrontendKernel``
    makes no tracked Python object either — no key tuple or boxed leaf
    for the PRF's LRU, no ``PlbEntry`` per refill, no boxed tag per PLB
    probe. Each bound fails at the parent (an ``OrderedDict`` LRU keyed
    by 4-tuples, a tag ``dict`` over ``PlbEntry`` objects)."""

    BLOCKS = 2**18

    @pytest.fixture(scope="class")
    def warmed(self):
        """``replay_posmap_bound``'s system: PIC_X32, 2^18 blocks, uniform
        addresses, 30 % writes, 2 000 events of warm-up."""
        frontend = build_frontend(
            "PIC_X32", num_blocks=self.BLOCKS, rng=DeterministicRng(7),
            storage="columnar",
        )
        ReplayEngine(frontend, OramTimingModel(1000.0)).enable_native(CORE)
        assert isinstance(frontend._kernel, CORE.FrontendKernel)
        rng = DeterministicRng(9)

        def run(events):
            addrs = [rng.randrange(self.BLOCKS) for _ in range(events)]
            writes = [rng.random() < 0.3 for _ in range(events)]
            payload = bytes(frontend.config.block_bytes)
            return CORE.run_access_loop(
                frontend.access, addrs, writes, Op.READ, Op.WRITE, payload
            )

        run(2000)
        return frontend, run

    def test_a_slice_leaves_nothing_for_the_collector(self, warmed):
        """400 uniform events, C to C: the result list and an arena or
        LRU chunk now and then (parent: 1 589, four a request)."""
        frontend, run = warmed
        with collector_off():
            before = gc.get_count()[0]
            counts = run(400)
            moved = gc.get_count()[0] - before
        assert len(counts) == 400
        assert moved < 100

    def test_six_thousand_events_leave_no_objects_behind(self, warmed):
        """Parent: 21 916 more tracked objects, the LRU's key tuples."""
        frontend, run = warmed
        prf = frontend.crypto.prf
        held = len(prf._leaf_cache)
        with collector_off():
            before = len(gc.get_objects())
            run(6000)
            grown = len(gc.get_objects()) - before
        assert len(prf._leaf_cache) > held + 10_000  # the LRU did fill
        assert grown < 500

    def test_no_frontend_container_scales_with_the_run(self, warmed):
        """Afterwards the PRF, its LRU, the PLB and the on-chip PosMap
        hold typed columns and scalars: no list, dict, tuple (or
        ``OrderedDict``, a dict) longer than 64."""
        frontend, run = warmed
        run(400)
        prf = frontend.crypto.prf
        assert len(prf._leaf_cache) > 5000
        for owner in (prf, prf._leaf_cache, frontend.plb, frontend.posmap):
            for name, value in vars(owner).items():
                if isinstance(value, (list, dict, tuple)):
                    assert len(value) <= 64, (type(owner).__name__, name)
        assert all(
            type(getattr(frontend.plb, name)) in (array, bytearray)
            for name in ("tags", "leaves", "counters", "last_use", "payload")
        )
        assert type(frontend.posmap._table) is array


# ---------------------------------------------------------------------------
# Error-path identity (C messages + transactional rollback)
# ---------------------------------------------------------------------------


@needs_core
class TestErrorPathIdentity:
    def test_out_of_range_leaf_message_and_rollback_identical(self):
        ref, nat = native_pair(SMALL)
        messages = []
        for backend in (ref, nat):
            backend.access(
                Op.APPEND,
                3,
                append_block=Block(3, SMALL.num_leaves * 2, bytes(32), None),
            )
            with pytest.raises(ValueError, match="out of range") as err:
                backend.access(Op.READ, 8, 0, 1)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert ref.stash_snapshot() == nat.stash_snapshot()
        assert tree_records(ref.storage) == tree_records(nat.storage)

    def test_duplicate_block_in_drained_bucket_identical(self):
        """A stash/tree duplicate detected *inside the C drain* raises the
        byte-identical message the scalar loop raises."""
        ref, nat = native_pair(SMALL)
        messages = []
        for backend in (ref, nat):
            backend.access(
                Op.APPEND, 5, append_block=Block(5, 1, bytes(32), None)
            )
            # Evict block 5 out of the stash into the tree...
            backend.access(Op.READ, 9, 0, 2)
            # ...then plant a second copy in the stash and walk a path
            # that drains the first: the drain must flag the duplicate.
            backend.access(
                Op.APPEND, 5, append_block=Block(5, 1, bytes(32), None)
            )
            with pytest.raises(ValueError, match="duplicate block") as err:
                backend.access(Op.READ, 7, 1, 0)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert ref.stash_snapshot() == nat.stash_snapshot()
        assert tree_records(ref.storage) == tree_records(nat.storage)

    @pytest.mark.parametrize(
        "raised",
        (ValueError("bad splice"), IntegrityViolationError("injected"),
         KeyboardInterrupt()),
        ids=lambda exc: type(exc).__name__,
    )
    @pytest.mark.parametrize("op", (Op.WRITE, Op.READRMV))
    def test_failing_update_restores_identically(self, raised, op):
        ref, nat = native_pair(SMALL)
        posmap = {}
        rng = DeterministicRng(6)
        for _ in range(40):
            addr = rng.randrange(64)
            leaf = posmap.get(addr, 0)
            new_leaf = rng.random_leaf(SMALL.levels)
            ref.access(Op.READ, addr, leaf, new_leaf)
            nat.access(Op.READ, addr, leaf, new_leaf)
            posmap[addr] = new_leaf

        def failing(block):
            # Mutations made before the fault must be rolled back too.
            block.data = b"\xEE" * SMALL.block_bytes
            block.mac = b"tag"
            block.leaf = 1
            raise raised

        # A resident block, then a first touch (fresh slot, released).
        for addr, leaf in ((next(iter(posmap)), None), (200, 0)):
            leaf = posmap[addr] if leaf is None else leaf
            for backend in (ref, nat):
                before = (backend.stash_snapshot(), tree_digest(backend.storage))
                with pytest.raises(type(raised)) as err:
                    backend.access(op, addr, leaf, 3, update=failing)
                assert err.value is raised
                assert not getattr(err.value, "__notes__", None)
                assert (
                    backend.stash_snapshot(), tree_digest(backend.storage)
                ) == before
            assert full_state(ref) == full_state(nat)
        # Both stay usable after the rollback.
        addr = next(iter(posmap))
        for backend in (ref, nat):
            backend.access(Op.READ, addr, posmap[addr], 5)
        assert full_state(ref) == full_state(nat)

    def test_wrong_sized_update_payload_message_and_rollback(self):
        """The write-back of an updated block validates its payload with
        the storage's own message, then rolls back like any failure."""
        _ref, nat = native_pair(SMALL)

        def truncating(block):
            block.data = b"short"

        nat.access(Op.READ, 5, 0, 2)
        before = (nat.stash_snapshot(), tree_digest(nat.storage))
        with pytest.raises(ValueError, match="payload must be") as err:
            nat.access(Op.WRITE, 5, 2, 3, update=truncating)
        assert (nat.stash_snapshot(), tree_digest(nat.storage)) == before
        with pytest.raises(ValueError) as own:
            nat.storage.set_payload(0, b"short")
        assert str(err.value) == str(own.value)

    def test_absent_block_raises_identically(self):
        ref, nat = native_pair(SMALL, allow_missing=False)
        messages = []
        for backend in (ref, nat):
            backend.access(
                Op.APPEND, 3, append_block=Block(3, 1, bytes(32), None)
            )
            with pytest.raises(BlockNotFoundError) as err:
                backend.access(Op.READ, 0x2A, 5, 1)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            "block 0x2a absent from path 5 and stash"
        )
        assert full_state(ref) == full_state(nat)

    def test_append_errors_identical(self):
        ref, nat = native_pair(SMALL)
        messages = []
        for backend in (ref, nat):
            local = []
            with pytest.raises(ValueError) as err:
                backend.access(Op.APPEND, 3)
            local.append(str(err.value))
            backend.access(
                Op.APPEND, 3, append_block=Block(3, 1, bytes(32), None)
            )
            with pytest.raises(ValueError) as err:
                backend.access(
                    Op.APPEND, 3, append_block=Block(3, 2, bytes(32), None)
                )
            local.append(str(err.value))
            with pytest.raises(ValueError) as err:
                backend.access(Op.READ, 9, SMALL.num_leaves, 0)
            local.append(str(err.value))
            messages.append(local)
        assert messages[0] == messages[1]
        assert full_state(ref) == full_state(nat)

    def test_stash_overflow_message_identical(self):
        config = OramConfig(
            num_blocks=256, block_bytes=16, blocks_per_bucket=1, stash_limit=3
        )
        ref, nat = native_pair(config)
        messages = []
        for backend in (ref, nat):
            rng = DeterministicRng(12)
            with pytest.raises(StashOverflowError) as err:
                for addr in range(200):
                    backend.access(
                        Op.READ, addr, 0, rng.random_leaf(config.levels)
                    )
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert full_state(ref) == full_state(nat)


# ---------------------------------------------------------------------------
# Kernel primitives (direct C calls against the Python reference)
# ---------------------------------------------------------------------------


@needs_core
class TestKernelPrimitives:
    @pytest.mark.parametrize("lpb", (1, 2, 8, 3, 7))
    def test_translate_matches_python(self, lpb):
        addrs = [0, 1, 5, 63, 64, 1023, 2**40 + 17]
        expect = [a // lpb for a in addrs]
        assert CORE.translate_block_addrs(addrs, lpb) == expect
        assert CORE.translate_block_addrs(array("q", addrs), lpb) == expect
        assert translate_block_addrs(addrs, lpb) == expect

    @pytest.mark.parametrize("bad", (0, -1, -8))
    def test_translate_guard_message_identical(self, bad):
        with pytest.raises(ValueError) as c_err:
            CORE.translate_block_addrs([1, 2], bad)
        with pytest.raises(ValueError) as py_err:
            translate_block_addrs([1, 2], bad)
        assert str(c_err.value) == str(py_err.value)
        assert f"got {bad}" in str(c_err.value)

    def test_accumulate_is_the_event_ordered_left_fold(self):
        latencies = [0.1 * k + 3.7 for k in range(200)]
        total = 12.5
        for lat in latencies:
            total += lat
        assert repr(CORE.accumulate(12.5, latencies)) == repr(total)
        # Operand-type fidelity off the float fast path.
        assert CORE.accumulate(0, [1, 2.5]) == 3.5
        assert CORE.accumulate(0.0, []) == 0.0

    def test_run_access_loop_op_selection_and_zip(self):
        calls = []

        class FakeResult:
            def __init__(self, n):
                self.tree_accesses = n

        def access(addr, op, payload=None):
            calls.append((addr, op, payload))
            return FakeResult(addr * 10)

        ns = CORE.run_access_loop(
            access, [4, 7, 9], [True, False], Op.READ, Op.WRITE, b"pp"
        )
        # zip semantics: stops at the shorter column.
        assert ns == [40, 70]
        assert calls == [(4, Op.WRITE, b"pp"), (7, Op.READ, None)]

    def test_run_access_loop_propagates_access_errors(self):
        def access(addr, op, payload=None):
            raise RuntimeError("backend exploded")

        with pytest.raises(RuntimeError, match="backend exploded"):
            CORE.run_access_loop(
                access, [1], [False], Op.READ, Op.WRITE, b""
            )

    def test_drain_scalar_matches_python_reference(self):
        """The exported drain against the scalar kernel's loop, spelled
        out: same groups, same snapshot, same block of interest."""
        rng = DeterministicRng(29)
        levels = 4
        for trial in range(40):
            arena = 64
            addr_col = array("q", range(1000, 1000 + arena))
            leaf_col = array(
                "q", [rng.randrange(1 << levels) for _ in range(arena)]
            )
            slots = list(range(arena))
            rng.shuffle(slots)
            path = [
                [slots.pop() for _ in range(rng.randrange(4))]
                for _ in range(levels + 1)
            ]
            stash = {
                addr_col[s]: s
                for s in (slots.pop() for _ in range(rng.randrange(5)))
            }
            leaf = rng.randrange(1 << levels)
            # The block of interest: on the path, in the stash, or absent.
            where = trial % 3
            candidates = (
                [s for lst in path for s in lst] if where == 0
                else list(stash.values()) if where == 1 else []
            )
            addr = (
                addr_col[candidates[rng.randrange(len(candidates))]]
                if candidates else 5
            )
            slot = stash.get(addr)

            ref_depth = [[] for _ in range(levels + 1)]
            ref_flat, ref_resident, ref_slot = [], [], slot
            for s in stash.values():
                if s == slot:
                    continue
                depth = levels - (leaf_col[s] ^ leaf).bit_length()
                ref_depth[depth].append(s)
                ref_resident.append(s)
            for lst in path:
                ref_flat.extend(lst)
                for s in lst:
                    if addr_col[s] == addr:
                        ref_slot = s
                        continue
                    depth = levels - (leaf_col[s] ^ leaf).bit_length()
                    ref_depth[depth].append(s)

            by_depth = [[] for _ in range(levels + 1)]
            flat, resident = [], []
            got = CORE.drain_scalar(
                path, addr_col, leaf_col, stash, slot, addr, leaf, levels,
                by_depth, flat, resident,
            )
            assert got == ref_slot, trial
            assert by_depth == ref_depth, trial
            assert flat == ref_flat, trial
            assert resident == ref_resident, trial

    def test_place_greedy_matches_python_reference(self):
        rng = DeterministicRng(13)
        for trial in range(20):
            levels = rng.randrange(3) + 2
            cap = rng.randrange(3) + 1
            path = [
                [rng.randrange(1000) for _ in range(rng.randrange(cap + 1))]
                for _ in range(levels + 1)
            ]
            by_depth = [
                [rng.randrange(1000) for _ in range(rng.randrange(4))]
                for _ in range(levels + 1)
            ]
            # Python reference: deepest first, candidates LIFO then pool
            # LIFO, scratch lists left empty (the scalar loop verbatim).
            ref_path = [list(b) for b in path]
            ref_depth = [list(c) for c in by_depth]
            ref_pool = []
            for level in range(levels, -1, -1):
                candidates = ref_depth[level]
                slots = ref_path[level]
                del slots[:]
                if not (candidates or ref_pool):
                    continue
                free = cap
                while free > 0 and candidates:
                    slots.append(candidates.pop())
                    free -= 1
                if candidates:
                    ref_pool.extend(candidates)
                    candidates.clear()
                while free > 0 and ref_pool:
                    slots.append(ref_pool.pop())
                    free -= 1
            pool = CORE.place_greedy(path, by_depth, levels, cap)
            assert path == ref_path, trial
            assert pool == ref_pool, trial
            assert all(not c for c in by_depth), trial


# ---------------------------------------------------------------------------
# Dispatch policy (REPRO_NATIVE / fallback / require)
# ---------------------------------------------------------------------------


class TestDispatchPolicy:
    @pytest.mark.parametrize(
        "value", ("0", "off", "no", "false", "disable", "disabled", " OFF ")
    )
    def test_off_values_disable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_NATIVE", value)
        assert Settings.from_env().native == "off"
        assert load_native_core() is None

    def test_policy_defaults_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        assert Settings.from_env().native == "on"
        monkeypatch.setenv("REPRO_NATIVE", "require")
        assert Settings.from_env().native == "require"

    def test_unbuilt_default_falls_back_to_the_reference_silently(
        self, monkeypatch
    ):
        """Without the extension the default is the reference tier, with
        no warning; asking for ``compiled`` by name raises, naming the
        build command."""
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(native_pkg, "_CORE_CACHE", [UNBUILT])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_replay_mode(None) == "scalar"
            fe = build_frontend("PI_X8", num_blocks=BLOCKS)
        assert type(fe.backend) is PathOramBackend
        with pytest.raises(NativeKernelUnavailable, match="build_ext --inplace"):
            resolve_replay_mode("compiled")

    def test_off_policy_falls_back_even_when_built(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        with pytest.raises(NativeKernelUnavailable, match="REPRO_NATIVE=off"):
            resolve_replay_mode("compiled")
        fe = build_frontend("PI_X8", num_blocks=BLOCKS, rng=DeterministicRng(7))
        assert type(fe.backend.storage) is TreeStorage
        engine = ReplayEngine.for_mode(
            fe, OramTimingModel(tree_latency_cycles=1000.0)
        )
        assert engine.mode == "scalar" and engine._native is None

    @pytest.mark.parametrize("mode", (None, "compiled"))
    def test_require_mode_raises_when_unbuilt(self, monkeypatch, mode):
        monkeypatch.setenv("REPRO_NATIVE", "require")
        monkeypatch.setattr(native_pkg, "_CORE_CACHE", [UNBUILT])
        with pytest.raises(NativeKernelUnavailable, match="REPRO_NATIVE"):
            resolve_replay_mode(mode)
        assert resolve_replay_mode("scalar") == "scalar"

    @needs_core
    def test_a_stale_build_is_not_the_fast_tier(self, monkeypatch):
        """A ``.so`` compiled from other sources than the ``.c`` beside it
        fails ``require`` loudly and sends the default to the reference
        tier, instead of being measured as the fast tier."""
        assert CORE.SOURCE_DIGEST == native_pkg.source_digest()
        monkeypatch.setattr(native_pkg, "source_digest", lambda: "0" * 64)
        monkeypatch.setattr(native_pkg, "_CORE_CACHE", [])
        monkeypatch.setenv("REPRO_NATIVE", "require")
        with pytest.raises(NativeKernelUnavailable, match="stale"):
            load_native_core()
        monkeypatch.setenv("REPRO_NATIVE", "on")
        assert resolve_tier() == ("scalar", None)
        assert type(build_frontend("PC_X32", num_blocks=BLOCKS).backend) is (
            PathOramBackend
        )

    def test_fallback_replay_matches_the_reference(self, monkeypatch):
        """End to end: an unbuilt extension replays on the reference tier
        — object storage, the per-event loop — the same bits as asking
        for the reference by name."""
        monkeypatch.delenv("REPRO_NATIVE", raising=False)  # pin policy "on"
        monkeypatch.setattr(native_pkg, "_CORE_CACHE", [UNBUILT])
        timing = OramTimingModel(tree_latency_cycles=1000.0)
        results = {}
        for mode in ("scalar", None):
            fe = build_frontend("PI_X8", num_blocks=BLOCKS, rng=DeterministicRng(7))
            assert type(fe.backend) is PathOramBackend
            results[mode] = (
                replay_trace(
                    fe, make_trace(2, events=300), timing,
                    scheme="PI_X8", mode=mode,
                ),
                frontend_digests(fe),
            )
        assert results[None] == results["scalar"]

    @needs_core
    def test_env_selects_compiled(self, monkeypatch):
        for policy in ("on", "require"):
            monkeypatch.setenv("REPRO_NATIVE", policy)
            assert resolve_tier(None) == ("compiled", CORE)
            assert resolve_replay_mode("scalar") == "scalar"

    @pytest.mark.parametrize("mode", (None, "scalar", "compiled"))
    @pytest.mark.parametrize("build", ("built", "unbuilt", "stale"))
    @pytest.mark.parametrize("policy", ("on", "off", "require"))
    def test_the_tier_table(self, monkeypatch, policy, build, mode):
        """Every (``REPRO_NATIVE``, build, ``mode=``) cell: the fast tier
        only on a current build the switch and the keyword allow, the
        reference tier where the fast one is not demanded, and
        ``NativeKernelUnavailable`` saying why (and how to build) where it
        is. ``make_storage("default")`` follows the environment's tier."""
        if build != "unbuilt" and CORE is None:
            pytest.skip("compiled core not built")
        monkeypatch.setenv("REPRO_NATIVE", policy)
        if build == "unbuilt":
            monkeypatch.setattr(native_pkg, "_CORE_CACHE", [UNBUILT])
        elif build == "stale":
            monkeypatch.setattr(native_pkg, "source_digest", lambda: "0" * 64)
            monkeypatch.setattr(native_pkg, "_CORE_CACHE", [])
        fast = policy != "off" and build == "built"
        if mode == "scalar":
            assert resolve_tier(mode) == ("scalar", None)
        elif fast:
            assert resolve_tier(mode) == ("compiled", CORE)
        elif mode == "compiled" or policy == "require":
            why = "REPRO_NATIVE=off" if policy == "off" else {
                "unbuilt": "not built", "stale": "stale",
            }[build]
            with pytest.raises(NativeKernelUnavailable, match=why) as caught:
                resolve_tier(mode)
            assert "build_ext --inplace" in str(caught.value)
        else:
            assert resolve_tier(mode) == ("scalar", None)
        if mode is None:
            config = OramConfig(num_blocks=64)
            if not fast and policy == "require":
                with pytest.raises(NativeKernelUnavailable):
                    make_storage("default", config)
            else:
                assert type(make_storage("default", config)) is (
                    ColumnarTreeStorage if fast else TreeStorage
                )


# ---------------------------------------------------------------------------
# Engine hookup
# ---------------------------------------------------------------------------


@needs_core
class TestEngineHookup:
    def test_enable_native_none_is_noop(self):
        fe = build_frontend("PI_X8", num_blocks=BLOCKS, rng=DeterministicRng(7))
        engine = ReplayEngine(fe, OramTimingModel(tree_latency_cycles=1000.0))
        engine.enable_native(None)
        assert engine._native is None

    def test_enable_native_reaches_columnar_backend(self):
        """The backend's kernel is bound at construction; enabling the
        engine builds the frontend's kernel on top of it."""
        fe = build_frontend(
            "PI_X8", num_blocks=BLOCKS, rng=DeterministicRng(7),
            storage="columnar",
        )
        tree_kernel = fe.backend._kernel
        assert isinstance(tree_kernel, CORE.AccessKernel)
        engine = ReplayEngine(fe, OramTimingModel(tree_latency_cycles=1000.0))
        engine.enable_native(CORE)
        assert engine._native is CORE
        assert fe.backend._kernel is tree_kernel
        assert isinstance(fe._kernel, CORE.FrontendKernel)

    def test_enable_native_tolerates_object_backends(self):
        """Object-storage backends have no native kernel hook, so an
        ``R_X8`` on them declines its ``RecursiveKernel`` too; the
        engine still compiles its own stages."""
        fe = build_frontend(
            "R_X8", num_blocks=BLOCKS, rng=DeterministicRng(7), storage="object"
        )
        engine = ReplayEngine(fe, OramTimingModel(tree_latency_cycles=1000.0))
        engine.enable_native(CORE)
        assert engine._native is CORE
        assert fe._kernel is None


@needs_core
class TestServeUsesCompiledTier:
    def run_serve(self, mode):
        from repro.serve import OramService, ServeConfig, tenants_for
        from repro.sim.runner import SimulationRunner

        service = OramService(
            tenants_for(["hmmer", "gob"], 3, requests=80),
            runner=SimulationRunner(misses_per_benchmark=300, seed=13),
            config=ServeConfig(
                scheme="PC_X32", shards=2, burst=3, max_batch=8,
                queue_capacity=5, policy="defer",
            ),
        )
        service.preload(0, 1, b"warm")  # re-creates one shard's engine
        kernels = [
            (shard.engine._native, getattr(shard.frontend.backend, "_kernel", None))
            for shard in service.shards
        ]
        report = service.run(mode).report()
        report.pop("wall_seconds")
        for tenant in report["tenants"]:
            tenant.pop("wall_us")
        return kernels, report

    def test_shards_run_on_the_kernel_and_reports_agree(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        kernels, reference = self.run_serve("serial")
        assert all(k == (None, None) for k in kernels)
        monkeypatch.delenv("REPRO_NATIVE")
        kernels, serial = self.run_serve("serial")
        assert all(
            native is CORE and isinstance(kernel, CORE.AccessKernel)
            for native, kernel in kernels
        )
        _kernels, concurrent = self.run_serve("async")
        assert serial == concurrent == reference


# ---------------------------------------------------------------------------
# Restore-path hardening (the narrowed except blocks, both backends)
# ---------------------------------------------------------------------------


def hardened_pair():
    """One backend per implementation of the restore path: object and
    (when built) columnar, whose kernel's error path calls the backend's
    ``_abort_access``."""
    config = SMALL
    backends = [
        PathOramBackend(config, TreeStorage(config), DeterministicRng(3)),
    ]
    if CORE is not None:
        backends.append(ColumnarPathOramBackend(
            config, ColumnarTreeStorage(config), DeterministicRng(3)
        ))
    return backends


def break_restore(monkeypatch, backend, fault: BaseException) -> None:
    """Make the backend's restore step raise ``fault``: the object
    backend's ``_restore``, or the storage write the columnar
    backend's rollback makes to put the block of interest back."""

    def broken(*args, **kwargs):
        raise fault

    if isinstance(backend, PathOramBackend):
        monkeypatch.setattr(backend, "_restore", broken)
    else:
        monkeypatch.setattr(backend.storage, "set_payload", broken)


class TestRestoreHardening:
    def warm(self, backend, accesses=30):
        posmap = {}
        rng = DeterministicRng(8)
        for _ in range(accesses):
            addr = rng.randrange(64)
            new_leaf = rng.random_leaf(SMALL.levels)
            backend.access(Op.READ, addr, posmap.get(addr, 0), new_leaf)
            posmap[addr] = new_leaf
        return posmap

    def test_keyboard_interrupt_rolls_back(self):
        """The old ``except Exception`` skipped restoration for
        BaseException-only errors; an interrupt mid-update must now roll
        back instead of leaving a half-mutated tree."""
        for backend in hardened_pair():
            posmap = self.warm(backend)
            addr = next(iter(posmap))
            before = (backend.stash_snapshot(), tree_records(backend.storage))

            def interrupting(block):
                block.data = b"\xAA" * SMALL.block_bytes
                raise KeyboardInterrupt

            with pytest.raises(KeyboardInterrupt):
                backend.access(
                    Op.WRITE, addr, posmap[addr], 1, update=interrupting
                )
            assert (
                backend.stash_snapshot(), tree_records(backend.storage)
            ) == before
            # Still usable.
            backend.access(Op.READ, addr, posmap[addr], 2)

    def test_restore_failure_is_chained_not_masking(self, monkeypatch):
        """A restore failure of an expected kind rides along as a note on
        the original error instead of replacing it."""
        seen = []
        for backend in hardened_pair():
            posmap = self.warm(backend)
            addr = next(iter(posmap))

            break_restore(monkeypatch, backend, ValueError("restore exploded"))

            def failing(block):
                raise IntegrityViolationError("original fault")

            with pytest.raises(IntegrityViolationError) as err:
                backend.access(Op.WRITE, addr, posmap[addr], 1, update=failing)
            notes = getattr(err.value, "__notes__", [])
            assert any("state restoration also failed" in n for n in notes)
            assert any("restore exploded" in n for n in notes)
            seen.append(notes)
        assert all(notes == seen[0] for notes in seen)  # byte-identical

    def test_unexpected_restore_error_propagates(self, monkeypatch):
        """Programming errors inside the restore path are not demoted to
        a note — they surface, with the original error as context."""
        for backend in hardened_pair():
            posmap = self.warm(backend)
            addr = next(iter(posmap))

            break_restore(monkeypatch, backend, ZeroDivisionError("restore bug"))

            def failing(block):
                raise IntegrityViolationError("original fault")

            with pytest.raises(ZeroDivisionError) as err:
                backend.access(Op.WRITE, addr, posmap[addr], 1, update=failing)
            assert isinstance(err.value.__context__, IntegrityViolationError)
