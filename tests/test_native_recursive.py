"""The native Recursive ORAM kernel: lockstep with ``RecursiveFrontend.access``.

``RecursiveFrontend.enable_native_kernel`` hands every processor request
of the ``R_X8`` baseline to a ``RecursiveKernel`` in
``repro.sim.native._replay_core`` — the leaf-mode on-chip lookup and
remap, one tree READ per PosMap level whose C visit remaps the child's
label inside the PosMap block, the first-touch substitution, then the
data access — each tree through its own backend's ``AccessKernel``. The
bar is the one the PLB kernel meets (``tests/test_native_frontend.py``):
after **every** access the reference tier (object storage, interpreted)
and the kernel must agree on

- the ``AccessResult`` and the full ``FrontendStats``;
- the RNG's state (so every draw was made, in the interpreted order);
- the on-chip table, its touched bitmap and every level's first-touch
  bitmap;
- every level's tree digest, stash snapshot and backend counters.

Further layers: error parity (same exception, same text, same state left
behind — stash overflow mid-walk included), the engagement rules, and
the structural guards: nothing of the frontend runs interpreted under
the kernel, a replay slice is one C call, a patched ``access`` is called
per event, and a discarded frontend is freed by refcount.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.backend.ops import Op
from repro.backend.path_oram import make_backend
from repro.errors import ConfigurationError, StashOverflowError
from repro.presets import build_frontend
from repro.sim.engine import ReplayEngine
from repro.sim.native import load_native_core
from repro.sim.system import replay_trace
from repro.sim.timing import OramTimingModel
from repro.storage.snapshot import tree_digest
from repro.utils.rng import DeterministicRng

from test_native_frontend import python_frames_during
from test_native_replay import CountingKernel
from test_replay_differential import (
    chunked, frontend_columns, make_trace, stats_image,
)

CORE = load_native_core()
pytestmark = pytest.mark.skipif(
    CORE is None,
    reason="compiled core not built (python setup.py build_ext --inplace)",
)

#: name -> R_X8 overrides (fan-out 8: 32-byte PosMap blocks of 4-byte
#: labels). H = 1 has no PosMap tree at all; the deeper ones walk two,
#: three and four of them, the top ones a single bucket high.
CONFIGS = {
    "H=1": dict(num_blocks=64, onchip_entries=64),
    "H=3": dict(num_blocks=2**9, onchip_entries=8),
    "H=4": dict(num_blocks=2**9, onchip_entries=4),
    "H=5": dict(num_blocks=2**12, onchip_entries=2),
}


def build(name, storage="columnar", seed=7, **overrides):
    return build_frontend(
        "R_X8", rng=DeterministicRng(seed), storage=storage,
        **dict(CONFIGS[name], **overrides),
    )


def engage(frontend):
    """Every kernel on, as ``ReplayEngine.enable_native`` does it."""
    frontend.enable_native_kernel(CORE)
    assert isinstance(frontend._kernel, CORE.RecursiveKernel)
    return frontend


def pair(name, **kwargs):
    """The reference tier and a kernel-driven twin."""
    return build(name, storage="object", **kwargs), engage(build(name, **kwargs))


def full_state(frontend):
    """Everything the bit-identity contract names, for one frontend."""
    return {
        "stats": stats_image(frontend),
        "rng": frontend.rng._rng.getstate(),
        **frontend_columns(frontend),
        "trees": [tree_digest(b.storage) for b in frontend.backends],
        "stashes": [b.stash_snapshot() for b in frontend.backends],
        "backends": [
            (b.access_count, b.tree_access_count, b.append_count,
             b.storage.buckets_read, b.storage.buckets_written)
            for b in frontend.backends
        ],
    }


def assert_same_state(ref, nat, context):
    ref_state, nat_state = full_state(ref), full_state(nat)
    for key in ref_state:
        assert ref_state[key] == nat_state[key], (context, key)


def requests(blocks, block_bytes, steps, seed, hot=64, write_share=0.3):
    rng = DeterministicRng(seed)
    for _ in range(steps):
        addr = rng.randrange(hot if rng.random() < 0.4 else blocks)
        if rng.random() < write_share:
            yield addr, Op.WRITE, bytes([rng.randrange(256)]) * block_bytes
        else:
            yield addr, Op.READ


def drive(ref, nat, steps, seed, **kwargs):
    """Seeded requests against both; compare after every one."""
    block_bytes = ref.configs[0].block_bytes
    for index, args in enumerate(
        requests(ref.space.num_blocks, block_bytes, steps, seed, **kwargs)
    ):
        assert ref.access(*args) == nat.access(*args), index
        assert_same_state(ref, nat, index)


# ---------------------------------------------------------------------------
# Lockstep
# ---------------------------------------------------------------------------


class TestLockstepAfterEveryAccess:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", (3, 2015))
    def test_randomized_requests(self, name, seed):
        ref, nat = pair(name)
        depth = int(name[2:])
        assert ref.num_levels == nat.num_levels == depth
        drive(ref, nat, steps=400, seed=seed)
        assert ref.stats.accesses == 400
        assert ref.stats.posmap_tree_accesses == 400 * (depth - 1)

    def test_first_touch_and_revisit_both_occur(self):
        """A hot set is revisited (labels read back out of PosMap
        blocks) while the cold share keeps touching fresh entries (the
        factory label drawn after the tree access)."""
        ref, nat = pair("H=4")
        before = sum(sum(map(int.bit_count, b)) for b in ref._touched)
        drive(ref, nat, steps=300, seed=5, hot=8)
        touched = sum(sum(map(int.bit_count, b)) for b in ref._touched)
        assert before == 0 and 8 < touched < 3 * 300

    def test_engaging_mid_run_continues_the_same_state(self):
        """``replay_trace`` enables per slice: whatever ran interpreted
        before the handle existed is the state it continues from."""
        ref, nat = build("H=4", storage="object"), build("H=4")
        drive(ref, nat, steps=150, seed=6)
        engage(nat)
        kernel = nat._kernel
        nat.enable_native_kernel(CORE)
        assert nat._kernel is kernel
        drive(ref, nat, steps=150, seed=7)

    def test_python_path_and_kernel_interleave_on_one_state(self):
        """One copy of state: requests may alternate between the handle
        and the interpreted body without either noticing."""
        ref, nat = pair("H=4")
        kernel = nat._kernel
        rng = DeterministicRng(12)
        block = bytes(ref.configs[0].block_bytes)
        for index in range(300):
            nat._kernel = kernel if rng.random() < 0.5 else None
            args = (rng.randrange(256),)
            if rng.random() < 0.3:
                args += (Op.WRITE, block)
            assert ref.access(*args) == nat.access(*args), index
            assert_same_state(ref, nat, index)

    def test_replay_engages_the_kernel_on_the_same_state(self):
        """``replay_trace`` is what switches the kernels on: slice by
        slice it leaves the full state the reference loop leaves."""
        timing = OramTimingModel(tree_latency_cycles=1000.0)
        ref, nat = build("H=4", storage="object"), build("H=4")
        trace = make_trace(5, events=400, blocks=ref.space.num_blocks)
        for chunk in chunked(trace, batch=100):
            reference = replay_trace(ref, chunk, timing, mode="scalar")
            compiled = replay_trace(nat, chunk, timing, mode="compiled")
            assert reference == compiled
            assert repr(reference.cycles) == repr(compiled.cycles)
            assert_same_state(ref, nat, chunk.name)
        assert ref._kernel is None
        assert isinstance(nat._kernel, CORE.RecursiveKernel)


# ---------------------------------------------------------------------------
# Error parity
# ---------------------------------------------------------------------------


class TestErrorParity:
    def both_raise(self, ref, nat, *args):
        errors = []
        for frontend in (ref, nat):
            with pytest.raises(Exception) as err:
                frontend.access(*args)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]
        assert_same_state(ref, nat, args)
        return errors[0]

    @pytest.mark.parametrize("name", ("H=1", "H=4"))
    def test_rejected_requests_leave_the_reference_state(self, name):
        ref, nat = pair(name)
        drive(ref, nat, steps=50, seed=1)
        block = bytes(ref.configs[0].block_bytes)
        assert self.both_raise(ref, nat, 5, Op.READRMV) == (
            ConfigurationError, "processor requests are READ or WRITE"
        )
        assert self.both_raise(ref, nat, 5, Op.APPEND, block)[0] is (
            ConfigurationError
        )
        for data in (None, block[:-1], block + b"x", b""):
            assert self.both_raise(ref, nat, 5, Op.WRITE, data) == (
                ValueError, "WRITE requires a full block of data"
            )
        # An unsized payload fails in len(), before anything is counted.
        assert self.both_raise(ref, nat, 5, Op.WRITE, 7)[0] is TypeError
        # The address is looked at after the request has been counted.
        before = ref.stats.accesses
        for addr in (-1, ref.space.num_blocks, 2**70):
            assert self.both_raise(ref, nat, addr) == (
                ValueError, f"address {addr} out of range"
            )
        assert ref.stats.accesses == before + 3
        # A payload bytes() refuses fails inside the data access, after
        # the whole PosMap walk; the data tree rolls back on both.
        assert self.both_raise(
            ref, nat, 5, Op.WRITE, "x" * len(block)
        )[0] is TypeError
        drive(ref, nat, steps=50, seed=2)

    @pytest.mark.parametrize("level", (0, 1, 2))
    def test_stash_overflow_mid_walk_leaves_the_reference_state(self, level):
        """One-block buckets and a one-block stash limit on one tree:
        the access that overflows it has already committed that tree's
        eviction and every level above it, and stops there on both."""
        ref = build("H=3", storage="object", blocks_per_bucket=1)
        nat = build("H=3", blocks_per_bucket=1)
        for frontend in (ref, nat):
            # A kernel takes its limit from the config it is built with.
            tree = frontend.backends[level]
            frontend.backends[level] = make_backend(
                dataclasses.replace(tree.config, stash_limit=1),
                tree.storage, tree.rng,
            )
        engage(nat)
        block_bytes = ref.configs[0].block_bytes
        failures = []
        for index, args in enumerate(
            requests(ref.space.num_blocks, block_bytes, 300, seed=9)
        ):
            outcomes = []
            for frontend in (ref, nat):
                try:
                    outcomes.append(frontend.access(*args))
                except (StashOverflowError, ValueError) as err:
                    outcomes.append((type(err), str(err)))
            assert outcomes[0] == outcomes[1], index
            if isinstance(outcomes[0], tuple):
                failures.append(outcomes[0][0])
            assert_same_state(ref, nat, index)
        # An abandoned walk leaves a child remapped but never marked
        # touched, so later requests may also trip the backend's
        # duplicate-block guard — at the same request, with the same
        # text, on both.
        assert StashOverflowError in failures
        # The walk stopped at the overflowing tree: the levels below it
        # saw fewer accesses than it did.
        counts = [b.tree_access_count for b in ref.backends]
        assert level == 0 or counts[level] > counts[0]


# ---------------------------------------------------------------------------
# Engagement
# ---------------------------------------------------------------------------


class TestEngagement:
    def test_none_is_a_no_op_and_the_handle_is_made_once(self):
        frontend = build("H=4")
        frontend.enable_native_kernel(None)
        assert frontend._kernel is None
        engage(frontend)

    def test_needs_every_backend_kernel_first(self):
        """Every level's tree must be a real ``AccessKernel``: one that is
        not (here the top level's, wrapped for counting) keeps the Python
        path, which reaches that tree through the wrapper."""
        frontend = build("H=4")
        top = frontend.backends[-1]
        top._kernel = CountingKernel(top._kernel)
        frontend.enable_native_kernel(CORE)
        assert frontend._kernel is None
        frontend.read(3)
        assert top._kernel.entries == top.access_count > 0

    def test_engine_engages_backends_then_frontend(self):
        frontend = build("H=4")
        ReplayEngine(frontend, OramTimingModel(1000.0)).enable_native(CORE)
        assert all(
            isinstance(b._kernel, CORE.AccessKernel) for b in frontend.backends
        )
        assert isinstance(frontend._kernel, CORE.RecursiveKernel)

    def test_object_storage_keeps_the_python_path(self):
        frontend = build("H=4", storage="object")
        ReplayEngine(frontend, OramTimingModel(1000.0)).enable_native(CORE)
        assert frontend._kernel is None

    def test_wide_labels_keep_the_python_path(self):
        frontend = build("H=4", leaf_bytes=16)
        frontend.enable_native_kernel(CORE)
        assert frontend.space.fanout == 2 and frontend._kernel is None
        frontend.read(3)

    def test_a_discarded_frontend_is_freed_by_refcount(self):
        """And every tree with it: a handle ⇄ stash cycle would park the
        bucket columns — megabytes at paper scale — on the collector."""
        frontend = engage(build("H=4"))
        frontend.read(1)
        probes = [weakref.ref(frontend)] + [
            weakref.ref(backend.storage) for backend in frontend.backends
        ]
        gc.disable()
        try:
            del frontend
            assert all(probe() is None for probe in probes)
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# Structural guards
# ---------------------------------------------------------------------------


class TestStructure:
    def test_one_kernel_entry_per_request(self):
        ref, nat = pair("H=4")
        nat._kernel = CountingKernel(nat._kernel)
        rng = DeterministicRng(3)
        for index in range(100):
            addr = rng.randrange(64)
            assert ref.access(addr) == nat.access(addr)
            assert nat._kernel.entries == index + 1

    def test_no_interpreted_frontend_step_runs_under_the_kernel(
        self, monkeypatch
    ):
        nat = engage(build("H=4"))

        def unreachable(*args, **kwargs):
            raise AssertionError("interpreted frontend step under the kernel")

        for owner, names in (
            (nat, ("_is_touched", "_mark_touched")),
            (nat.posmap, ("lookup_and_remap", "_is_touched", "_mark_touched")),
            (nat.space, ("chain", "child_slot", "level_blocks")),
            (nat.rng, ("random_leaf",)),
        ):
            for name in names:
                monkeypatch.setattr(owner, name, unreachable)
        for fmt in nat.formats[1:]:
            monkeypatch.setattr(fmt, "remap", unreachable)
        for backend in nat.backends:
            monkeypatch.setattr(backend, "access", unreachable)
        rng = DeterministicRng(8)
        block = bytes(nat.configs[0].block_bytes)
        for _ in range(200):
            nat.access(rng.randrange(128), Op.WRITE, block)
            nat.access(rng.randrange(nat.space.num_blocks))
        assert nat.stats.posmap_tree_accesses == 3 * 400

    def test_a_replay_slice_is_one_c_call(self):
        """Handed the unpatched bound ``access`` of an engaged frontend,
        the access loop never enters a Python frame."""
        ref, nat = pair("H=4")
        rng = DeterministicRng(21)
        addrs = [rng.randrange(ref.space.num_blocks) for _ in range(300)]
        writes = [rng.random() < 0.3 for _ in range(300)]
        payload = bytes(ref.configs[0].block_bytes)
        expected = [
            ref.access(a, Op.WRITE, payload).tree_accesses if w
            else ref.access(a).tree_accesses
            for a, w in zip(addrs, writes)
        ]
        counts, entered = python_frames_during(
            lambda: CORE.run_access_loop(
                nat.access, addrs, writes, Op.READ, Op.WRITE, payload
            )
        )
        assert counts == expected == [4] * 300
        # The arena growing a chunk is the storage's own method; nothing
        # of the frontend or the backends runs interpreted.
        assert set(entered) <= {"_grow"}
        assert_same_state(ref, nat, "after the slice")

    def test_an_observer_mid_slice_reads_the_per_request_counters(self):
        """One fold per slice, and one before every observer callback:
        an observer on any level's tree, called from inside the slice,
        reads every tree's and the frontend's counters as the
        interpreted access would have left them at that point."""
        ref, nat = pair("H=4")
        drive(ref, nat, steps=40, seed=4)
        seen = {id(ref): [], id(nat): []}

        class Probe:
            def __init__(self, frontend, level):
                self.frontend, self.level = frontend, level
                frontend.backends[level].storage.observer = self

            def image(self, kind, leaf):
                state = full_state(self.frontend)
                seen[id(self.frontend)].append(
                    (self.level, kind, leaf, state["stats"], state["backends"])
                )

            def on_path_read(self, leaf, indices):
                self.image("read", leaf)

            def on_path_write(self, leaf, indices):
                self.image("write", leaf)

        for frontend in (ref, nat):
            for level in range(frontend.num_levels):
                Probe(frontend, level)
        rng = DeterministicRng(17)
        addrs = [rng.randrange(ref.space.num_blocks) for _ in range(80)]
        writes = [rng.random() < 0.3 for _ in range(80)]
        payload = bytes(ref.configs[0].block_bytes)
        for frontend in (ref, nat):
            CORE.run_access_loop(
                frontend.access, addrs, writes, Op.READ, Op.WRITE, payload
            )
        assert seen[id(ref)] == seen[id(nat)]
        assert len(seen[id(nat)]) == 2 * 4 * 80
        # Every callback met different numbers: nothing was batched.
        assert len({repr(row[3:]) for row in seen[id(nat)]}) == 2 * 4 * 80
        assert_same_state(ref, nat, "after the slice")

    def test_a_patched_access_is_called_per_event(self):
        """A shim on the instance (the perf tracer's) is not the bound
        method: the loop calls it, and it reaches the kernel."""
        nat = engage(build("H=4"))
        calls = []
        bound = nat.access

        def shim(*args):
            calls.append(args[0])
            return bound(*args)

        nat.access = shim
        counts = CORE.run_access_loop(
            nat.access, [1, 2, 3], [False] * 3, Op.READ, Op.WRITE, b""
        )
        assert calls == [1, 2, 3] and counts == [4, 4, 4]
        assert nat.stats.accesses == 3

    def test_a_failing_event_stops_the_slice_where_python_would(self):
        ref, nat = pair("H=4")
        addrs = [1, 2, ref.space.num_blocks, 3]
        for frontend in (ref, nat):
            with pytest.raises(ValueError, match="out of range"):
                CORE.run_access_loop(
                    frontend.access, addrs, [False] * 4, Op.READ, Op.WRITE, b""
                )
        assert_same_state(ref, nat, "after the failed slice")
        assert nat.stats.accesses == 3
