"""Both tiers in lockstep: every scheme, every request pattern, every access.

``tests/lockstep.py`` builds the pair (object storage and the
interpreted frontend against columnar storage under the frontend's
kernel), steps both and compares the outcome and the whole state after
every access.  Here it runs over the ``SchemeSpec`` registry at small
geometry and over the named variants the kernels branch on — a 2-way
and a fully associative PLB, beta = 2 counters that roll over, a
three-block bucket that keeps the stash busy, a PosMap held wholly on
chip and Recursive ORAM depths H = 1..5 — against four request
patterns: mixed hot/cold traffic, one address repeated, a stride that
aliases PLB sets and a sequential write scan.  The special cases
follow: WRITE payloads as ``bytes`` / ``bytearray`` / ``memoryview``,
engaging mid-run, the interpreted path and the kernel interleaved on
one state, error parity, PMMAC tamper and PLB counters at 2^96.  The
slice-level form (``replay_trace`` on both tiers, slice by slice) runs
in ``tests/test_replay_differential.py``.
"""

import dataclasses

import pytest

from repro.adversary.tamper import StorageTamperer
from repro.backend.ops import Op
from repro.backend.path_oram import make_backend
from repro.errors import ConfigurationError, StashOverflowError
from repro.spec import spec_names
from repro.utils.rng import DeterministicRng

from helpers import cold_address, reference_leaf_for
from lockstep import (
    CORE, PATTERNS, VARIANTS, build, engage, geometry, lockstep, mixed,
    needs_core, pair, state,
)

pytestmark = needs_core

def test_the_registry_is_covered():
    assert len(spec_names()) == 7
    assert set(spec_names()) <= set(VARIANTS)


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_every_access(name, pattern):
    ref, fast = pair(name)
    seed = sum(map(ord, name + pattern))
    assert lockstep(ref, fast, PATTERNS[pattern](ref, seed, 200), name) is None
    assert ref.stats.accesses == 200
    # Each pattern reaches what it is named for.
    if name == "PI_X8/H=1":  # everything resolves on-chip: no PLB traffic
        assert ref.space_levels == 1
        assert ref.stats.plb_hits == ref.stats.plb_misses == 0
    elif pattern == "aliasing" and hasattr(ref, "plb"):
        assert ref.stats.plb_evictions > 50
    if pattern == "scan" and "beta=2" in name:
        assert ref.stats.group_remaps > 5
    if name.startswith("R_X8/H="):
        depth = int(name[-1])
        assert ref.num_levels == depth
        assert ref.stats.posmap_tree_accesses == 200 * (depth - 1)


def test_group_remaps_with_resident_and_relocated_siblings():
    """2-bit ICs roll over on every fourth touch of an entry: PosMap
    levels remap groups whose siblings sit in the PLB (bookkeeping only)
    or in the tree (readrmv + re-seal + append), and the data level
    relocates whole sibling groups of data blocks."""
    ref, fast = pair("PIC_X32/beta=2")
    resident, remapping = [], []
    original, group_remap = ref.plb.peek, ref._group_remap

    def peek(tag):
        entry = original(tag)
        if remapping:  # a refill peeks too, at the block it installed
            resident.append(entry is not None)
        return entry

    def remap(*args):
        remapping.append(True)
        try:
            return group_remap(*args)
        finally:
            remapping.pop()

    ref.plb.peek, ref._group_remap = peek, remap
    requests = mixed(ref, 5, 400, hot=16, write_share=0.5)
    assert lockstep(ref, fast, requests, "siblings") is None
    assert ref.stats.group_remaps > 5
    assert ref.stats.group_relocations > 100
    assert any(resident) and not all(resident)


@pytest.mark.parametrize("name", ("PI_X8", "PIC_X32", "P_X16", "R_X8"))
def test_every_payload_type(name):
    """A WRITE's block as ``bytes`` (sealed in the remap's lanes),
    ``bytearray`` or ``memoryview`` (sealed on their own): each counted
    once, where the reference counts it."""
    ref, fast = pair(name)
    requests = mixed(
        ref, 4, 400, hot=48, write_share=0.5,
        wraps=("bytes", "bytearray", "memoryview"),
    )
    assert lockstep(ref, fast, requests, name) is None
    if hasattr(ref, "crypto"):
        assert ref.stats.plb_evictions > 20
        assert fast.crypto.mac.call_count == ref.crypto.mac.call_count


@pytest.mark.parametrize("name", ("PI_X8", "PIC_X32"))
def test_resident_leaves_are_the_formula(name):
    """A PMMAC scheme draws no leaf at random: every resident PLB entry's
    leaf is one keyed BLAKE2b of its tag and counter."""
    ref, fast = pair(name)
    assert lockstep(ref, fast, mixed(ref, 31, 300, write_share=0), name) is None
    assert fast.crypto.prf.call_count > 600
    assert fast.crypto.prf.cache_hits == 0
    prf, levels = fast.crypto.prf, fast.config.levels
    entries = [way.detach() for way in fast.plb.entries()]
    assert entries
    for entry in entries:
        assert entry.leaf == reference_leaf_for(
            prf.key, entry.tagged_addr, entry.counter, levels
        ), entry


@pytest.mark.parametrize("name", ("PI_X8", "PIC_X32"))
def test_a_tree_of_no_levels_derives_and_counts_no_leaf(name):
    """One block, a one-bucket tree (L = 0): every leaf is 0 and no PRF
    call is counted, while the seals and verifies still run."""
    ref, fast = pair(name, num_blocks=1, onchip_entries=1)
    assert ref.config.levels == 0
    requests = mixed(ref, 12, 60, hot=1, write_share=0.5)
    assert lockstep(ref, fast, requests, name) is None
    assert fast.crypto.prf.call_count == 0
    assert fast.crypto.mac.call_count > 60


# ---------------------------------------------------------------------------
# One state, two spellings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ("PIC_X32", "R_X8", "PC_X32/beta=2"))
def test_engaging_mid_run_continues_the_same_state(name):
    """``replay_trace`` enables per slice: whatever ran interpreted
    before the handle existed is the state it continues from."""
    scheme, fields = VARIANTS[name]
    ref, fast = build(scheme, "object", **fields), build(scheme, "columnar", **fields)
    assert lockstep(ref, fast, mixed(ref, 6, 150), name) is None
    engage(fast)
    kernel = fast._kernel
    fast.enable_native_kernel(CORE)
    assert fast._kernel is kernel
    assert lockstep(ref, fast, mixed(ref, 7, 150), name) is None


@pytest.mark.parametrize("name", ("PIC_X32/beta=2", "PIC_X32/full", "P_X16", "R_X8"))
def test_python_path_and_kernel_interleave_on_one_state(name):
    """One copy of state: requests may alternate between the handle and
    the interpreted body without either noticing — the columns one
    leaves are the columns the other finds."""
    ref, fast = pair(name)
    kernel = fast._kernel
    rng = DeterministicRng(12)
    for index, args in enumerate(mixed(ref, 12, 300, hot=256)):
        fast._kernel = kernel if rng.random() < 0.5 else None
        assert lockstep(ref, fast, [args], (name, index)) is None


# ---------------------------------------------------------------------------
# Error parity
# ---------------------------------------------------------------------------


def raised(ref, fast, *args):
    """One request that fails on both, alike, leaving one state."""
    failure = lockstep(ref, fast, [args], args)
    assert failure is not None, args
    return failure[1][1:]


@pytest.mark.parametrize("name", sorted(spec_names()) + ["R_X8/H=1"])
def test_rejected_requests_leave_the_reference_state(name):
    ref, fast = pair(name)
    assert lockstep(ref, fast, mixed(ref, 1, 50), name) is None
    blocks, block_bytes = geometry(ref)
    block = bytes(block_bytes)
    assert raised(ref, fast, 5, Op.READRMV) == (
        ConfigurationError, "processor requests are READ or WRITE"
    )
    assert raised(ref, fast, 5, Op.APPEND, block)[0] is ConfigurationError
    for data in (None, block[:-1], block + b"x", b""):
        assert raised(ref, fast, 5, Op.WRITE, data) == (
            ValueError, "WRITE requires a full block of data"
        )
    # An unsized payload fails in len(), before anything is counted.
    assert raised(ref, fast, 5, Op.WRITE, 7)[0] is TypeError
    # The address is looked at after the request has been counted.
    before = ref.stats.accesses
    for addr in (-1, blocks, 2**70):
        assert raised(ref, fast, addr) == (
            ValueError, f"address {addr} out of range"
        )
    assert ref.stats.accesses == before + 3
    assert lockstep(ref, fast, mixed(ref, 2, 50), name) is None
    # A block-length payload bytes() refuses is refused in bytes()'s
    # words before anything moves: no counter, no PosMap walk, no remap.
    old = b"\x07" * len(block)
    assert lockstep(ref, fast, [(5, Op.WRITE, old)], name) is None
    images = state(ref), state(fast)
    assert raised(ref, fast, 5, Op.WRITE, "x" * len(block)) == (
        TypeError, "string argument without an encoding"
    )
    assert (state(ref), state(fast)) == images
    assert ref.read(5) == fast.read(5) == old
    assert lockstep(ref, fast, mixed(ref, 3, 50), name) is None


def test_onchip_counter_overflow():
    ref, fast = pair("PIC_X32")
    assert lockstep(ref, fast, mixed(ref, 1, 30), "warm") is None
    for frontend in (ref, fast):
        frontend.posmap._table[0] = 2**64 - 1
        frontend.plb.tags[:] = type(frontend.plb.tags)("q", [-1] * 8)
    assert raised(ref, fast, 0) == (ConfigurationError, "on-chip counter overflow")


def test_group_counter_overflow():
    """alpha = 2: the fourth rollover of one group has no GC left."""
    ref, fast = pair("PC_X32/beta=2", compressed_alpha=2)
    rng = DeterministicRng(5)
    requests = [(rng.randrange(8), Op.READ) for _ in range(400)]
    failure = lockstep(ref, fast, requests, "alpha=2")
    assert failure is not None and failure[1][1:] == (
        ConfigurationError, "group counter overflow (alpha too small)"
    )
    assert ref.stats.group_remaps >= 3


def test_duplicate_plb_insert():
    """Only a draw that installs the block behind the request's back gets
    there (P_X16 draws between the lookup loop and the refill): the clock
    has ticked, the refill's tree access has committed."""
    ref, fast = pair("P_X16")
    assert lockstep(ref, fast, mixed(ref, 3, 60), "warm") is None
    addr, fanout = cold_address(ref), ref.space.fanout
    for frontend in (ref, fast):
        real = frontend.rng._getrandbits
        armed = [True]

        def hostile(bits, plb=frontend.plb, real=real, armed=armed):
            if armed:
                armed.pop()
                # Straight into the tag column: the way of its set.
                tag = (1 << 48) | (addr // fanout)
                plb.tags[plb._set_index(tag) * plb.ways] = tag
            return real(bits)

        frontend.rng._getrandbits = hostile
    fast._kernel = None
    engage(fast)  # bind the hostile draw
    assert raised(ref, fast, addr) == (ValueError, "block already resident in PLB")


@pytest.mark.parametrize("level", (0, 1, 2))
def test_stash_overflow_mid_walk_leaves_the_reference_state(level):
    """One-block buckets and a one-block stash limit on one R_X8 tree:
    the access that overflows it has already committed that tree's
    eviction and every level above it, and stops there on both."""
    _, fields = VARIANTS["R_X8/H=3"]
    ref, fast = (
        build("R_X8", storage, blocks_per_bucket=1, **fields)
        for storage in ("object", "columnar")
    )
    for frontend in (ref, fast):
        # A kernel takes its limit from the config it is built with.
        tree = frontend.backends[level]
        frontend.backends[level] = make_backend(
            dataclasses.replace(tree.config, stash_limit=1),
            tree.storage, tree.rng,
        )
    engage(fast)
    requests, failures = mixed(ref, 9, 300), []
    while requests:
        failure = lockstep(ref, fast, requests, level)
        if failure is None:
            break
        failures.append(failure[1][1])
        requests = requests[failure[0] + 1:]
    # An abandoned walk leaves a child remapped but never marked touched,
    # so later requests may also trip the backend's duplicate-block guard
    # — at the same request, with the same text, on both.
    assert StashOverflowError in failures
    assert set(failures) <= {StashOverflowError, ValueError}
    # The walk stopped at the overflowing tree: the levels below it saw
    # fewer accesses than it did.
    counts = [b.tree_access_count for b in ref.backends]
    assert level == 0 or counts[level] > counts[0]


# ---------------------------------------------------------------------------
# PMMAC under attack, and counters at the top of 96 bits
# ---------------------------------------------------------------------------


PMMAC = ("PI_X8", "PIC_X32")


def warm(ref, fast, seed, steps=120):
    requests = mixed(ref, seed, steps, hot=48, write_share=0.5)
    assert lockstep(ref, fast, requests, "warm") is None
    return requests


@pytest.mark.parametrize("name", PMMAC)
def test_a_flipped_mac_bit(name):
    ref, fast = pair(name)
    target = next(
        args[0] for args in reversed(warm(ref, fast, 5))
        if args[1] is Op.WRITE
        and StorageTamperer(ref.backend.storage).find(args[0]) is not None
    )
    for frontend in (ref, fast):
        assert StorageTamperer(frontend.backend.storage).corrupt_mac(target)
    failure = lockstep(ref, fast, [(target, Op.READ)] * 40, name)
    assert failure is not None
    assert failure[1][2].startswith(f"MAC mismatch for block {target:#x}")


@pytest.mark.parametrize("name", PMMAC)
def test_a_swapped_pair_of_blocks(name):
    ref, fast = pair(name)
    warm(ref, fast, 6, 150)
    storage = ref.backend.storage
    resident = [
        (index, record[0])
        for index in range(storage.config.num_buckets)
        for record in storage.bucket_records(index)
        if record[0] < ref.num_blocks and record[3] is not None
    ]
    (first, a), (second, b) = resident[0], resident[-1]
    assert a != b
    for frontend in (ref, fast):
        storage = frontend.backend.storage
        rows = {
            index: list(storage.bucket_records(index))
            for index in {first, second}
        }
        pa = next(i for i, r in enumerate(rows[first]) if r[0] == a)
        pb = next(i for i, r in enumerate(rows[second]) if r[0] == b)
        ra, rb = rows[first][pa], rows[second][pb]
        # Each address keeps its place; data and tag change hands.
        rows[first][pa] = (ra[0], ra[1], rb[2], rb[3])
        rows[second][pb] = (rb[0], rb[1], ra[2], ra[3])
        for index, records in rows.items():
            storage.replace_bucket_records(index, tuple(records))
    failure = lockstep(ref, fast, [(a, Op.READ), (b, Op.READ)] * 20, name)
    assert failure is not None and "MAC mismatch" in failure[1][2]


@pytest.mark.parametrize("name", PMMAC)
def test_a_stale_block_and_counter_replayed(name):
    ref, fast = pair(name)
    warm(ref, fast, 7, 100)
    tamperers = [StorageTamperer(f.backend.storage) for f in (ref, fast)]
    for tamperer in tamperers:
        tamperer.snapshot()
    warm(ref, fast, 8, 100)
    for tamperer in tamperers:
        tamperer.replay_all()
    failure = lockstep(ref, fast, mixed(ref, 9, 300, hot=48, write_share=0.5), name)
    assert failure is not None
    assert failure[1][1].__name__ == "IntegrityViolationError"


def test_an_integrity_failure_names_a_count_past_64_bits():
    """A group counter of 2^63 (PIC_X32's counters are GC || IC) puts
    its children's counts past 64 bits: the failure names the count
    whole, in one message on both tiers."""
    ref, fast = pair("PIC_X32")
    warm(ref, fast, 5)
    fanout = ref.space.fanout
    for frontend in (ref, fast):
        plb = frontend.plb
        size = len(plb.payload) // len(plb.tags)
        way = next(w for w, tag in enumerate(plb.tags) if tag >> 48 == 1)
        plb.payload[way * size : way * size + 8] = (2**63).to_bytes(8, "little")
    first = (plb.tags[way] & ((1 << 48) - 1)) * fanout
    requests = [(addr, Op.READ) for addr in range(first, first + fanout)]
    failure = lockstep(ref, fast, requests, "GC = 2^63")
    assert failure is not None
    count = int(failure[1][2].split("counter ")[1].split()[0])
    assert count >= 2**63 << 14


@pytest.mark.parametrize("high", [2**32 - 1, 2**32])
@pytest.mark.parametrize("name", PMMAC)
def test_plb_counters_at_the_top_of_96_bits(name, high):
    """Every resident PosMap block's counter set to 2^96 - 1 (its victim
    seal still fits a lane) or to 2^96 (it does not: the seal raises
    where ``to_bytes(12)`` does, with nothing counted)."""
    ref, fast = pair(name)
    warm(ref, fast, 10, 80)
    for frontend in (ref, fast):
        counters = frontend.plb.counters
        for way, tag in enumerate(frontend.plb.tags):
            if tag >= 0:
                counters[2 * way] = 2**64 - 1
                counters[2 * way + 1] = high
    requests = mixed(ref, 11, 400, hot=ref.num_blocks, write_share=0.3,
                     wraps=("bytes", "bytearray", "memoryview"))
    failure = lockstep(ref, fast, requests, name)
    assert failure is not None
    if high == 2**32:
        assert failure[1][1:] == (OverflowError, "int too big to convert")
