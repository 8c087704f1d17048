"""Hypothesis property tests over the PLB frontend (all variants)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.unified import PlbFrontend
from repro.spec import SchemeSpec, spec_names
from repro.utils.rng import DeterministicRng

import lockstep

STEP = st.tuples(
    st.integers(min_value=0, max_value=255),
    st.booleans(),
    st.integers(min_value=0, max_value=255),
)

VARIANTS = [
    ("uncompressed", False),
    ("flat", True),
    ("compressed", True),
]


def build(posmap_format, pmmac, seed, beta=14):
    return PlbFrontend(
        SchemeSpec(
            num_blocks=256,
            posmap_format=posmap_format,
            pmmac=pmmac,
            compressed_beta=beta,
            onchip_entries=8,
            plb_capacity_bytes=512,
            storage="object",
        ),
        rng=DeterministicRng(seed),
    )


@pytest.mark.parametrize("posmap_format,pmmac", VARIANTS)
@settings(max_examples=15, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=80), seed=st.integers(0, 1000))
def test_frontend_is_a_ram(posmap_format, pmmac, steps, seed):
    """Any op sequence behaves like an ideal RAM under every variant."""
    frontend = build(posmap_format, pmmac, seed)
    shadow = {}
    for addr, is_write, byte in steps:
        if is_write:
            payload = bytes([byte]) * 64
            frontend.write(addr, payload)
            shadow[addr] = payload
        else:
            assert frontend.read(addr) == shadow.get(addr, bytes(64))


@settings(max_examples=15, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=60), seed=st.integers(0, 1000))
def test_group_remaps_never_corrupt(steps, seed):
    """Tiny beta forces frequent group remaps mid-sequence; data must
    survive arbitrarily interleaved remap storms."""
    frontend = build("compressed", True, seed, beta=2)
    shadow = {}
    for addr, is_write, byte in steps:
        addr %= 64  # concentrate traffic to trigger rollovers
        if is_write:
            payload = bytes([byte]) * 64
            frontend.write(addr, payload)
            shadow[addr] = payload
        else:
            assert frontend.read(addr) == shadow.get(addr, bytes(64))


@settings(max_examples=10, deadline=None)
@given(addrs=st.lists(st.integers(0, 255), min_size=10, max_size=80))
def test_stash_plus_tree_occupancy_conserved(addrs):
    """Blocks are neither duplicated nor lost: stash + tree + PLB counts
    every touched block exactly once."""
    frontend = build("uncompressed", False, 3)
    for addr in addrs:
        frontend.read(addr)
    tree = frontend.backend.storage.occupancy()
    stash = frontend.backend.stash_occupancy()
    plb = len(frontend.plb)
    touched_data = len(set(addrs))
    posmap_blocks = frontend.stats.plb_refills - frontend.stats.plb_evictions
    # Data blocks touched once live in tree/stash; PosMap blocks that were
    # materialised live in tree/stash/PLB.
    total = tree + stash + plb
    assert total >= touched_data
    # Nothing is ever duplicated:
    seen = set()
    for bucket in frontend.backend.storage._buckets:
        if bucket is None:
            continue
        for block in bucket:
            assert block.addr not in seen
            seen.add(block.addr)
    for block in frontend.backend.stash:
        assert block.addr not in seen
        seen.add(block.addr)
    for entry in frontend.plb.entries():
        assert entry.tagged_addr not in seen
        seen.add(entry.tagged_addr)


@settings(max_examples=10, deadline=None)
@given(
    addrs=st.lists(st.integers(0, 255), min_size=5, max_size=50),
    seed=st.integers(0, 100),
)
def test_deterministic_replay(addrs, seed):
    """Identical seeds and op sequences give identical observable state."""
    runs = []
    for _ in range(2):
        frontend = build("compressed", False, seed)
        outputs = [frontend.read(a) for a in addrs]
        runs.append(
            (
                outputs,
                frontend.stats.plb_hits,
                frontend.stats.tree_accesses,
                frontend.backend.stash_occupancy(),
            )
        )
    assert runs[0] == runs[1]


@pytest.mark.parametrize("name", sorted(spec_names()))
def test_a_payload_bytes_refuses_moves_nothing(name):
    """On the reference tier too (it needs no compiled core): a
    block-length ``str`` WRITE raises before any counter, PosMap entry,
    PLB way, tree or RNG draw moves, and the block keeps its data."""
    scheme, fields = lockstep.VARIANTS[name]
    frontend = lockstep.build(scheme, "object", **fields)
    _, block_bytes = lockstep.geometry(frontend)
    block = bytes(range(256)) * (block_bytes // 256) + bytes(block_bytes % 256)
    frontend.write(5, block)
    before = lockstep.state(frontend)
    with pytest.raises(TypeError, match="string argument without an encoding"):
        frontend.write(5, "x" * block_bytes)
    assert lockstep.state(frontend) == before
    assert frontend.read(5) == block
