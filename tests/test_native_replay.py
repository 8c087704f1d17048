"""The compiled replay core: bit-identity, dispatch policy, hardening.

Coverage for ``repro.sim.native._replay_core`` below the replay
pipeline (``tests/test_lockstep.py`` locks the whole fast tier, kernels
engaged, against the reference tier per access and per slice):

- **Backend lockstep** — a columnar backend on its native
  ``AccessKernel`` against the object ``PathOramBackend`` reference,
  through ``tests/lockstep.py``'s ``BackendDriver``: the returned block
  and the whole state image (stash snapshot in order, tree, every
  counter, ``occupancy_stats``, the ledgers and the observer's event
  log) after every access, over READ/WRITE/READRMV/APPEND, Z in {2, 4},
  stash pressure that takes the leftover-rebuild path and allocations
  that cross an arena growth — each access entering the C module
  exactly once.
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
import hashlib
import importlib.util
import shutil
import sys
import types
import warnings
from array import array
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.native as native_pkg
from repro.backend.columnar import ColumnarPathOramBackend
from repro.backend.ops import Op
from repro.backend.path_oram import PathOramBackend
from repro.config import OramConfig
from repro.crypto.suite import CryptoSuite
from repro.errors import (
    BlockNotFoundError,
    IntegrityViolationError,
    NativeKernelUnavailable,
    StashOverflowError,
)
from repro.presets import build_frontend
from repro.settings import Settings
from repro.sim.engine import ReplayEngine
from repro.sim.native import load_native_core, unavailable_reason
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
from repro.utils.stats import LEDGERS

from lockstep import (
    CORE, BackendDriver, CountingKernel, backend_twin, frontend_digests,
    generate_steps, ledger_image, make_trace, needs_core, slice_counts,
    state,
)

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = 2**10

#: What an install without the extension memoises (see ``native_core``).
UNBUILT = (None, "the native extension is not built")


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
        """Random ops against both backends; compared after every access."""
        ref, nat = backend_twin(config, seed=seed)
        trace = generate_steps(
            seed * 31 + 5, steps, num_addrs or config.num_blocks // 4,
            config.levels, with_removal=with_removal, mac_fraction=0.5,
        )
        assert BackendDriver(ref, nat).run(trace, seed) is None
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
        _ref, nat = backend_twin(SMALL)

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
        slice_counts(frontend.access, addrs[:2000], writes)
        with collector_off():
            before = gc.get_count()[0]
            counts = slice_counts(frontend.access, addrs[2000:], writes)
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
    makes no tracked Python object either — no boxed leaf per PRF call,
    no ``PlbEntry`` per refill, no boxed tag per PLB probe. Each bound
    failed when the PRF memoised leaves in an ``OrderedDict`` keyed by
    4-tuples and the PLB was a tag ``dict`` over ``PlbEntry`` objects."""

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
            return slice_counts(frontend.access, addrs, writes, payload)

        run(2000)
        return frontend, run

    def test_a_slice_leaves_nothing_for_the_collector(self, warmed):
        """400 uniform events, C to C: the result list and an arena chunk
        now and then (parent: 1 589, four a request)."""
        frontend, run = warmed
        with collector_off():
            before = gc.get_count()[0]
            counts = run(400)
            moved = gc.get_count()[0] - before
        assert len(counts) == 400
        assert moved < 100

    def test_six_thousand_events_leave_no_objects_behind(self, warmed):
        """Parent: 21 916 more tracked objects, a leaf cache's key tuples."""
        frontend, run = warmed
        with collector_off():
            before = len(gc.get_objects())
            run(6000)
            grown = len(gc.get_objects()) - before
        assert grown < 500

    def test_no_frontend_container_scales_with_the_run(self, warmed):
        """Afterwards the PRF, the PLB and the on-chip PosMap hold typed
        columns and scalars: no list, dict, tuple (or ``OrderedDict``, a
        dict) longer than 64."""
        frontend, run = warmed
        run(400)
        prf = frontend.crypto.prf
        for owner in (prf, frontend.plb, frontend.posmap):
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
        ref, nat = backend_twin(SMALL)
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
        ref, nat = backend_twin(SMALL)
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
        ref, nat = backend_twin(SMALL)
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
            assert state(ref) == state(nat)
        # Both stay usable after the rollback.
        addr = next(iter(posmap))
        for backend in (ref, nat):
            backend.access(Op.READ, addr, posmap[addr], 5)
        assert state(ref) == state(nat)

    def test_wrong_sized_update_payload_message_and_rollback(self):
        """The write-back of an updated block validates its payload with
        the storage's own message, then rolls back like any failure."""
        _ref, nat = backend_twin(SMALL)

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
        ref, nat = backend_twin(SMALL, allow_missing=False)
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
        assert state(ref) == state(nat)

    def test_append_errors_identical(self):
        ref, nat = backend_twin(SMALL)
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
        assert state(ref) == state(nat)

    def test_stash_overflow_message_identical(self):
        config = OramConfig(
            num_blocks=256, block_bytes=16, blocks_per_bucket=1, stash_limit=3
        )
        ref, nat = backend_twin(config)
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
        assert state(ref) == state(nat)


# ---------------------------------------------------------------------------
# Kernel primitives (direct C calls against the Python reference)
# ---------------------------------------------------------------------------


@st.composite
def sparse_drains(draw):
    """A drain over a path of levels + 1 buckets, at most a dozen blocks
    in all: each slot's leaf shares a drawn prefix with the path's, so
    every legal depth occurs.  The block of interest is on the path, in
    the stash or absent."""
    levels = draw(st.integers(0, 60))
    leaf = draw(st.integers(0, (1 << levels) - 1))
    arena = 32
    addr_col = array("q", range(1000, 1000 + arena))
    leaf_col = array("q", [
        leaf ^ (draw(st.integers(0, (1 << levels) - 1))
                >> draw(st.integers(0, levels)))
        for _ in range(arena)
    ])
    slots = draw(st.lists(st.integers(0, arena - 1), unique=True, max_size=12))
    n_stash = draw(st.integers(0, min(4, len(slots))))
    stash = {addr_col[s]: s for s in slots[:n_stash]}
    path = [[] for _ in range(levels + 1)]
    for s in slots[n_stash:]:
        path[draw(st.integers(0, levels))].append(s)
    where = draw(st.sampled_from(["path", "stash", "absent"]))
    candidates = {"path": slots[n_stash:], "stash": slots[:n_stash]}.get(
        where, []
    )
    addr = addr_col[draw(st.sampled_from(candidates))] if candidates else 5
    return levels, leaf, addr_col, leaf_col, path, stash, addr


@st.composite
def sparse_placements(draw):
    """place_greedy's operands with candidates at a few depths only —
    up to three within four levels of each other, only the root, or only
    the leaf — and stale bucket contents that placement must clear."""
    levels = draw(st.integers(0, 60))
    cap = draw(st.integers(1, 8))
    deepest = draw(st.integers(0, levels))
    used = draw(st.one_of(
        st.lists(st.integers(max(deepest - 3, 0), deepest), min_size=1,
                 max_size=3),
        st.just([0]),
        st.just([levels]),
    ))
    by_depth = [[] for _ in range(levels + 1)]
    for depth, slot in draw(st.lists(
        st.tuples(st.sampled_from(used), st.integers(0, 999)),
        max_size=3 * cap + 4,
    )):
        by_depth[depth].append(slot)
    path = [[] for _ in range(levels + 1)]
    for depth, slot in draw(st.lists(
        st.tuples(st.integers(0, levels), st.integers(0, 999)), max_size=8
    )):
        if len(path[depth]) < cap:
            path[depth].append(slot)
    return levels, cap, path, by_depth


@needs_core
class TestKernelPrimitives:
    @pytest.mark.parametrize("lpb", (1, 2, 8, 3, 7))
    def test_translate_matches_python(self, lpb):
        addrs = [0, 1, 5, 63, 64, 1023, 2**40 + 17]
        expect = [a // lpb for a in addrs]
        assert CORE.translate_block_addrs(array("q", addrs), lpb) == expect
        assert translate_block_addrs(addrs, lpb) == expect

    @pytest.mark.parametrize("bad", (0, -1, -8))
    def test_translate_guard_message_identical(self, bad):
        with pytest.raises(ValueError) as c_err:
            CORE.translate_block_addrs(array("q", [1, 2]), bad)
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

        ns = slice_counts(access, [4, 7, 9], [True, False], b"pp")
        # zip semantics: stops at the shorter column.
        assert ns == [40, 70]
        assert calls == [(4, Op.WRITE, b"pp"), (7, Op.READ, None)]

    def test_run_access_loop_propagates_access_errors(self):
        def access(addr, op, payload=None):
            raise RuntimeError("backend exploded")

        with pytest.raises(RuntimeError, match="backend exploded"):
            slice_counts(access, [1], [False])

    @settings(max_examples=200, deadline=None)
    @given(case=sparse_drains())
    def test_drain_scalar_matches_python_reference(self, case):
        """The exported drain against the scalar kernel's loop, spelled
        out, on paths up to 61 buckets that are mostly empty: same
        groups, same snapshot, same block of interest."""
        levels, leaf, addr_col, leaf_col, path, stash, addr = case
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
        assert got == ref_slot
        assert by_depth == ref_depth
        assert flat == ref_flat
        assert resident == ref_resident

    @settings(max_examples=300, deadline=None)
    @given(case=sparse_placements())
    def test_place_greedy_matches_python_reference(self, case):
        """Placement against the scalar loop verbatim — deepest first,
        candidates LIFO then pool LIFO, scratch lists left empty — over
        up to 61 levels with candidates at a few depths, so the pool
        crosses empty levels (or never leaves the root or the leaf)."""
        levels, cap, path, by_depth = case
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
        assert path == ref_path
        assert pool == ref_pool
        assert all(not c for c in by_depth)

    def test_the_adapters_refuse_a_path_past_60_levels(self):
        with pytest.raises(ValueError, match="at most 60 levels"):
            CORE.place_greedy([[]] * 62, [[]] * 62, 61, 4)
        with pytest.raises(ValueError, match="at most 60 levels"):
            CORE.drain_scalar(
                [[]] * 62, array("q"), array("q"), {}, None, 5, 0, 61,
                [[]] * 62, [], [],
            )


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

    def test_the_digest_covers_every_unit(self, tmp_path, monkeypatch):
        """``SOURCE_DIGEST`` is over every ``.c`` unit and ``.h`` header
        of the core, sorted by name, as ``setup.py`` stamps it: editing
        any one of them makes a build stale, so a ``.so`` built before a
        unit changed is never measured as current."""
        native = Path(native_pkg.__file__).parent
        units = sorted(p for p in native.iterdir() if p.suffix in (".c", ".h"))
        assert native_pkg.source_files() == units
        assert {"_replay_core.c", "_replay_core.h", "tree.c"} <= {
            p.name for p in units
        }
        spelled = hashlib.sha256()
        for path in units:
            data = path.read_bytes()
            spelled.update(f"{path.name}\0{len(data)}\0".encode())
            spelled.update(data)
        assert native_pkg.source_digest() == spelled.hexdigest()

        copy = tmp_path / "native"
        copy.mkdir()
        for path in units:
            shutil.copy2(path, copy / path.name)
        pristine = native_pkg.source_digest(copy)
        assert pristine == native_pkg.source_digest()
        for path in units:
            target = copy / path.name
            data = target.read_bytes()
            target.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
            assert native_pkg.source_digest(copy) != pristine, path.name
            target.write_bytes(data)
        assert native_pkg.source_digest(copy) == pristine

        monkeypatch.chdir(ROOT)  # setup.py's SOURCES are relative to it
        spec = importlib.util.spec_from_file_location("repro_setup", ROOT / "setup.py")
        setup_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(setup_module)  # defines, does not run setup()
        assert [ROOT / p for p in setup_module.SOURCES] == units
        assert setup_module.source_digest(setup_module.SOURCES) == pristine

    @pytest.mark.parametrize(
        "state, words",
        [
            ("stale", "is stale"),
            ("refused", "does not load (undefined symbol: fk_leaf_pair)"),
            ("absent", "is not built (import of repro.sim.native._replay_core"),
        ],
    )
    def test_the_loaders_reason_is_every_skip_and_error(
        self, monkeypatch, state, words
    ):
        """Why there is no core is what every skipped fast-tier test gives
        (``unavailable_reason``) and what ``require`` raises: a stale build
        says it is stale, and one the loader refuses carries the loader's
        message — neither reads as merely unbuilt."""
        name = "repro.sim.native._replay_core"
        monkeypatch.delattr(native_pkg, "_replay_core", raising=False)
        if state == "stale":
            built = types.ModuleType(name)
            built.SOURCE_DIGEST = "1" * 64
            monkeypatch.setitem(sys.modules, name, built)
            monkeypatch.setattr(native_pkg, "source_digest", lambda: "0" * 64)
        elif state == "refused":

            class Refusing:
                def find_spec(self, fullname, path=None, target=None):
                    if fullname == name:
                        raise ImportError("undefined symbol: fk_leaf_pair")

            monkeypatch.delitem(sys.modules, name, raising=False)
            monkeypatch.setattr(sys, "meta_path", [Refusing(), *sys.meta_path])
        else:
            monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.setattr(native_pkg, "_CORE_CACHE", [])
        monkeypatch.setenv("REPRO_NATIVE", "on")
        assert load_native_core() is None
        assert words in unavailable_reason()
        monkeypatch.setenv("REPRO_NATIVE", "require")
        with pytest.raises(NativeKernelUnavailable) as refused:
            native_pkg.require_core()
        assert words in str(refused.value)
        assert "build_ext --inplace" in str(refused.value)
        monkeypatch.setenv("REPRO_NATIVE", "off")
        assert unavailable_reason() == "REPRO_NATIVE=off"

    @needs_core
    def test_the_core_counts_in_the_tables_ledgers(self):
        assert CORE.LEDGERS.splitlines() == [
            " ".join((row.name, row.typecode, *row.slots))
            for row in LEDGERS.values()
        ]

    @needs_core
    @pytest.mark.parametrize(
        "ledger", [name for name in LEDGERS if len(LEDGERS[name].slots) > 1]
    )
    def test_a_core_whose_ledger_differs_is_refused(self, monkeypatch, ledger):
        """A build whose kernels count one ledger in another layout than
        the table the Python owners read — two slots swapped — sends the
        default to the reference tier and fails ``require``, naming the
        ledger, instead of counting every figure's counters in the wrong
        slots."""
        rows = [line.split() for line in CORE.LEDGERS.splitlines()]
        for row in rows:
            if row[0] == ledger:
                row[2:4] = row[3:1:-1]  # its first two slots, swapped
        monkeypatch.setattr(CORE, "LEDGERS", "\n".join(map(" ".join, rows)))
        monkeypatch.setattr(native_pkg, "_CORE_CACHE", [])
        monkeypatch.setenv("REPRO_NATIVE", "on")
        assert load_native_core() is None
        assert resolve_tier() == ("scalar", None)
        monkeypatch.setattr(native_pkg, "_CORE_CACHE", [])
        monkeypatch.setenv("REPRO_NATIVE", "require")
        with pytest.raises(NativeKernelUnavailable, match=f"'{ledger}' ledger"):
            load_native_core()

    @needs_core
    def test_a_core_without_ledgers_is_refused(self, monkeypatch):
        monkeypatch.delattr(CORE, "LEDGERS")
        monkeypatch.setattr(native_pkg, "_CORE_CACHE", [])
        monkeypatch.setenv("REPRO_NATIVE", "require")
        with pytest.raises(NativeKernelUnavailable, match="'frontend' ledger"):
            load_native_core()

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
            pytest.skip(unavailable_reason())
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


#: The schemes whose counters a slice moves: a small set-associative PLB
#: evicts by LRU, so its clock has to run on across the slices; R_X8
#: counts on four trees.
SLICED_SCHEMES = ("PC_X32:plb=2KiB,ways=4", "PIC_X32:plb=2KiB,ways=4", "R_X8")
SLICED_EVENTS = 96
SLICED_BLOCKS = 2**14  # too many for the on-chip PosMap: the PLB works


def sliced_engine(scheme):
    frontend = build_frontend(
        scheme, num_blocks=SLICED_BLOCKS, rng=DeterministicRng(7),
        storage="columnar",
    )
    engine = ReplayEngine(frontend, OramTimingModel(tree_latency_cycles=1000.0))
    engine.enable_native(CORE)
    return engine


def sliced_trace():
    rng = DeterministicRng(3)
    return (
        [rng.randrange(SLICED_BLOCKS) for _ in range(SLICED_EVENTS)],
        [rng.randrange(4) == 0 for _ in range(SLICED_EVENTS)],
    )


def engine_image(engine):
    return (
        ledger_image(engine.frontend), engine.cycles,
        frontend_digests(engine.frontend),
    )


#: ``(scheme, events) -> engine_image`` of one run_batch over that prefix.
_WHOLE_CALLS = {}


def whole_call_image(scheme, events):
    key = (scheme, events)
    if key not in _WHOLE_CALLS:
        engine = sliced_engine(scheme)
        addrs, writes = sliced_trace()
        engine.run_batch(addrs[:events], writes[:events])
        _WHOLE_CALLS[key] = engine_image(engine)
    return _WHOLE_CALLS[key]


@needs_core
class TestSlicedReplay:
    """The kernels count in their owners' ledgers in place: a trace cut
    into slices anywhere — empty slices included — leaves, after every
    slice and with no call in between, every counter, the cycles and the
    tree digests of one ``run_batch`` over the same prefix."""

    @pytest.mark.parametrize("scheme", SLICED_SCHEMES)
    @settings(max_examples=12, deadline=None)
    @given(cuts=st.lists(st.integers(0, SLICED_EVENTS), max_size=6))
    def test_every_slice_leaves_what_one_call_leaves(self, scheme, cuts):
        engine = sliced_engine(scheme)
        addrs, writes = sliced_trace()
        bounds = [0, *sorted(cuts), SLICED_EVENTS]
        for start, end in zip(bounds, bounds[1:]):
            engine.run_batch(addrs[start:end], writes[start:end])
            assert engine_image(engine) == whole_call_image(scheme, end), end
        if "plb" in scheme:
            assert engine.frontend.stats.plb_evictions > 0

    def test_callbacks_mid_slice_read_the_reference_counters(self):
        """A slice whose requests run interpreted over the tree's kernel
        (the reference crypto suite declines the frontend kernel): every
        counter read from an observer callback, and from ``_verify``,
        which the data block's ``update`` callback calls inside the tree
        access, equals the reference tier's at the same point."""
        seen = []
        for storage in ("object", "columnar"):
            frontend = build_frontend(
                "PIC_X32:plb=2KiB,ways=4", num_blocks=2**12,
                rng=DeterministicRng(7), storage=storage,
                crypto=CryptoSuite.reference(),
            )
            frontend.enable_native_kernel(CORE)
            assert frontend._kernel is None
            log = []
            seen.append(log)

            class Probe:
                def on_path_read(self, leaf, indices, frontend=frontend):
                    log.append(("read", ledger_image(frontend)))

                def on_path_write(self, leaf, indices, frontend=frontend):
                    log.append(("write", ledger_image(frontend)))

            def verify(block, tagged, counter, frontend=frontend, log=log,
                       real=frontend._verify):
                log.append(("verify", ledger_image(frontend)))
                real(block, tagged, counter)

            frontend.backend.storage.observer = Probe()
            frontend._verify = verify
            rng = DeterministicRng(11)
            addrs = [rng.randrange(frontend.num_blocks) for _ in range(60)]
            writes = [rng.random() < 0.3 for _ in range(60)]
            slice_counts(
                frontend.access, addrs, writes,
                bytes(frontend.config.block_bytes),
            )
        reference, columnar = seen
        assert {kind for kind, _ in columnar} == {"read", "write", "verify"}
        assert columnar == reference


@needs_core
class TestLedgerBounds:
    @pytest.mark.parametrize("scheme", SLICED_SCHEMES)
    def test_a_counter_at_its_limit_wraps(self, scheme):
        """A kernel counts modulo 2^64, so a counter Python parked at the
        int64 limit wraps instead of overflowing a signed add (which the
        sanitizer lane would flag), and the access is served."""
        engine = sliced_engine(scheme)
        frontend = engine.frontend
        trees = getattr(frontend, "backends", None) or [frontend.backend]
        top = 2**63 - 1
        frontend.stats.accesses = top
        for backend in trees:
            backend.access_count = top
        engine.run_batch([1, 2], [False, True])
        assert frontend.stats.accesses == -(2**63) + 1
        for backend in trees:
            ops = backend.tree_access_count + backend.append_count
            assert backend.access_count == -(2**63) - 1 + ops
        assert frontend.stats.data_tree_accesses == 2


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
