"""The native Recursive ORAM kernel: what lockstep alone does not show.

``RecursiveFrontend.enable_native_kernel`` hands every processor request
of the ``R_X8`` baseline to a ``RecursiveKernel`` in
``repro.sim.native._replay_core`` — the leaf-mode on-chip lookup and
remap, one tree READ per PosMap level whose C visit remaps the child's
label inside the PosMap block, the first-touch substitution, then the
data access — each tree through its own backend's ``AccessKernel``.
That the kernel leaves the reference tier's state after every access —
recursion depths H = 1..5, every request pattern, error parity with a
stash that overflows mid-walk — is ``tests/test_lockstep.py`` (the
harness in ``tests/lockstep.py``).  Here: the engagement rules and the
structural guards: nothing of the frontend runs interpreted under the
kernel, a replay slice is one C call, a patched ``access`` is called per
event, and a discarded frontend is freed by refcount.
"""

import gc
import weakref

import pytest

from repro.backend.ops import Op
from repro.sim.engine import ReplayEngine
from repro.sim.timing import OramTimingModel
from repro.utils.rng import DeterministicRng

from lockstep import (
    CORE, VARIANTS, CountingKernel, assert_same_state, build, engage,
    lockstep, mixed, needs_core, pair, python_frames_during, slice_counts,
    state,
)

pytestmark = needs_core


def variant(name="R_X8", storage="columnar", **fields):
    """One ``R_X8`` frontend of a named variant (H = 4 by default),
    nothing engaged."""
    scheme, base = VARIANTS[name]
    return build(scheme, storage, **dict(base, **fields))


# ---------------------------------------------------------------------------
# Engagement
# ---------------------------------------------------------------------------


class TestEngagement:
    def test_none_is_a_no_op_and_the_handle_is_made_once(self):
        frontend = variant()
        frontend.enable_native_kernel(None)
        assert frontend._kernel is None
        engage(frontend)

    def test_needs_every_backend_kernel_first(self):
        """Every level's tree must be a real ``AccessKernel``: one that is
        not (here the top level's, wrapped for counting) keeps the Python
        path, which reaches that tree through the wrapper."""
        frontend = variant()
        top = frontend.backends[-1]
        top._kernel = CountingKernel(top._kernel)
        frontend.enable_native_kernel(CORE)
        assert frontend._kernel is None
        frontend.read(3)
        assert top._kernel.entries == top.access_count > 0

    def test_engine_engages_backends_then_frontend(self):
        frontend = variant()
        ReplayEngine(frontend, OramTimingModel(1000.0)).enable_native(CORE)
        assert all(
            isinstance(b._kernel, CORE.AccessKernel) for b in frontend.backends
        )
        assert isinstance(frontend._kernel, CORE.RecursiveKernel)

    def test_object_storage_keeps_the_python_path(self):
        frontend = variant(storage="object")
        ReplayEngine(frontend, OramTimingModel(1000.0)).enable_native(CORE)
        assert frontend._kernel is None

    def test_wide_labels_keep_the_python_path(self):
        frontend = variant(leaf_bytes=16)
        frontend.enable_native_kernel(CORE)
        assert frontend.space.fanout == 2 and frontend._kernel is None
        frontend.read(3)

    def test_a_discarded_frontend_is_freed_by_refcount(self):
        """And every tree with it: a handle ⇄ stash cycle would park the
        bucket columns — megabytes at paper scale — on the collector."""
        frontend = engage(variant())
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
        ref, nat = pair("R_X8")
        nat._kernel = CountingKernel(nat._kernel)
        requests = [(addr, Op.READ) for addr, *_ in mixed(ref, 3, 100)]
        for index, args in enumerate(requests):
            assert lockstep(ref, nat, [args], index) is None
            assert nat._kernel.entries == index + 1

    def test_no_interpreted_frontend_step_runs_under_the_kernel(
        self, monkeypatch
    ):
        nat = engage(variant())

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
        ref, nat = pair("R_X8")
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
            lambda: slice_counts(nat.access, addrs, writes, payload)
        )
        assert counts == expected == [4] * 300
        # The arena growing a chunk is the storage's own method; nothing
        # of the frontend or the backends runs interpreted.
        assert set(entered) <= {"_grow"}
        assert_same_state(ref, nat, "after the slice")

    def test_an_observer_mid_slice_reads_the_per_request_counters(self):
        """Counters are counted in place: an observer on any level's
        tree, called from inside the slice, reads every tree's and the
        frontend's counters as the interpreted access would have left
        them at that point."""
        ref, nat = pair("R_X8")
        assert lockstep(ref, nat, mixed(ref, 4, 40), "warm") is None
        seen = {id(ref): [], id(nat): []}

        class Probe:
            def __init__(self, frontend, level):
                self.frontend, self.level = frontend, level
                frontend.backends[level].storage.observer = self

            def image(self, kind, leaf):
                image = state(self.frontend)
                seen[id(self.frontend)].append((
                    self.level, kind, leaf, image["stats"],
                    [tree["counters"] for tree in image["trees"]],
                ))

            def on_path_read(self, leaf, indices):
                self.image("read", leaf)

            def on_path_write(self, leaf, indices):
                self.image("write", leaf)

        for frontend in (ref, nat):
            for level in range(frontend.num_levels):
                Probe(frontend, level)
        rng = DeterministicRng(17)
        addrs = [rng.randrange(nat.space.num_blocks) for _ in range(80)]
        writes = [rng.random() < 0.3 for _ in range(80)]
        payload = bytes(nat.configs[0].block_bytes)
        for frontend in (ref, nat):
            slice_counts(frontend.access, addrs, writes, payload)
        assert seen[id(ref)] == seen[id(nat)]
        assert len(seen[id(nat)]) == 2 * 4 * 80
        # Every callback met different numbers: nothing was batched.
        assert len({repr(row[3:]) for row in seen[id(nat)]}) == 2 * 4 * 80
        assert_same_state(ref, nat, "after the slice")

    def test_a_patched_access_is_called_per_event(self):
        """A shim on the instance (the perf tracer's) is not the bound
        method: the loop calls it, and it reaches the kernel."""
        nat = engage(variant())
        calls = []
        bound = nat.access

        def shim(*args):
            calls.append(args[0])
            return bound(*args)

        nat.access = shim
        counts = slice_counts(nat.access, [1, 2, 3], [False] * 3)
        assert calls == [1, 2, 3] and counts == [4, 4, 4]
        assert nat.stats.accesses == 3

    def test_a_failing_event_stops_the_slice_where_python_would(self):
        ref, nat = pair("R_X8")
        addrs = [1, 2, ref.space.num_blocks, 3]
        for frontend in (ref, nat):
            with pytest.raises(ValueError, match="out of range"):
                slice_counts(frontend.access, addrs, [False] * 4)
        assert_same_state(ref, nat, "after the failed slice")
        assert nat.stats.accesses == 3
