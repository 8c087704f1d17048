"""Property: a mid-access fault is an exact no-op on ORAM state.

Whatever the access sequence, whatever the faulted operation, and
whichever storage backend holds the tree, an exception raised in the
middle of ``Backend.access`` must leave the stash snapshot and the tree
digest at their exact pre-access values — and the backend must keep
working afterwards. The fault is delivered through the ``repro.faults``
plane (a ``cell.crash`` plan fired from the in-stash ``update``
callback, the deepest point of an access: the leaf is already remapped
and every path bucket drained).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.path_oram import Op, make_backend
from repro.config import OramConfig
from repro.errors import InjectedFault
from repro.faults import fault_hook, injected
from repro.sim.native import load_native_core, unavailable_reason
from repro.storage.columnar import ColumnarTreeStorage
from repro.storage.snapshot import tree_digest
from repro.storage.tree import TreeStorage
from repro.utils.rng import DeterministicRng

STORAGES = [
    pytest.param(TreeStorage, id="object"),
    # Its backend is the native access kernel.
    pytest.param(ColumnarTreeStorage, id="columnar", marks=pytest.mark.skipif(
        load_native_core() is None, reason=unavailable_reason()
    )),
]

#: Warmup writes stay below this; the faulted access may go above it so
#: the created-fresh (block absent from tree and stash) path is covered.
WARM_ADDRS = 32


def _build(storage_cls, seed, warmup):
    config = OramConfig(num_blocks=64, block_bytes=16)
    backend = make_backend(config, storage_cls(config), DeterministicRng(seed))
    rng = DeterministicRng(seed ^ 0x5EED)
    posmap = {}
    for step, addr in enumerate(warmup):
        new_leaf = rng.random_leaf(config.levels)

        def update(block, step=step):
            block.data = bytes([step % 256]) * config.block_bytes

        backend.access(Op.WRITE, addr, posmap.get(addr, 0), new_leaf,
                       update=update)
        posmap[addr] = new_leaf
    return backend, rng, posmap


class TestMidAccessFaultIsExactNoop:
    @pytest.mark.parametrize("storage_cls", STORAGES)
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        warmup=st.lists(
            st.integers(min_value=0, max_value=WARM_ADDRS - 1), max_size=40
        ),
        fault_addr=st.integers(min_value=0, max_value=63),
        fault_op=st.sampled_from([Op.READ, Op.WRITE, Op.READRMV]),
    )
    def test_fault_mid_access_restores_pre_access_snapshot(
        self, storage_cls, seed, warmup, fault_addr, fault_op
    ):
        backend, rng, posmap = _build(storage_cls, seed, warmup)
        config = backend.config

        before_stash = backend.stash_snapshot()
        before_tree = tree_digest(backend.storage)
        before_appends = backend.append_count

        def bomb(block):
            fault_hook("cell", "prop/mid-access")

        with injected("cell.crash@prop/*"):
            with pytest.raises(InjectedFault):
                backend.access(
                    fault_op,
                    fault_addr,
                    posmap.get(fault_addr, 0),
                    rng.random_leaf(config.levels),
                    update=bomb,
                )

        assert backend.stash_snapshot() == before_stash
        assert tree_digest(backend.storage) == before_tree
        assert backend.append_count == before_appends

        # The backend stays usable: a normal access to a warmed address
        # (or a fresh allocation when the warmup was empty) succeeds.
        probe = warmup[0] if warmup else 0
        new_leaf = rng.random_leaf(config.levels)
        got = backend.access(Op.READ, probe, posmap.get(probe, 0), new_leaf)
        assert got is not None and got.addr == probe

    @pytest.mark.parametrize("storage_cls", STORAGES)
    def test_faulted_then_healed_run_matches_fault_free_golden(
        self, storage_cls
    ):
        """Retrying the faulted access converges to the fault-free state:
        the sequence (access, fault, retry-same-access) leaves the exact
        stash and tree of a run that never faulted."""
        warmup = [addr % WARM_ADDRS for addr in range(24)]
        golden, g_rng, g_posmap = _build(storage_cls, 11, warmup)
        chaos, c_rng, c_posmap = _build(storage_cls, 11, warmup)
        assert g_posmap == c_posmap

        addr = warmup[3]
        new_leaf = g_rng.random_leaf(golden.config.levels)
        assert new_leaf == c_rng.random_leaf(chaos.config.levels)

        def touch(block):
            block.data = b"\xab" * golden.config.block_bytes

        golden.access(Op.WRITE, addr, g_posmap[addr], new_leaf, update=touch)

        def faulty(block):
            fault_hook("cell", "prop/retry")
            touch(block)

        with injected("cell.crash@prop/*#1"):
            with pytest.raises(InjectedFault):
                chaos.access(
                    Op.WRITE, addr, c_posmap[addr], new_leaf, update=faulty
                )
            # Same plan still installed — hit #1 already consumed, so the
            # retry goes through, exactly like the sweep's retry loop.
            chaos.access(
                Op.WRITE, addr, c_posmap[addr], new_leaf, update=faulty
            )

        assert chaos.stash_snapshot() == golden.stash_snapshot()
        assert tree_digest(chaos.storage) == tree_digest(golden.storage)
