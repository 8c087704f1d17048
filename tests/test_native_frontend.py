"""The native PLB frontend kernel: lockstep with ``PlbFrontend.access``.

``PlbFrontend.enable_native_kernel`` hands every processor request to a
``FrontendKernel`` in ``repro.sim.native._replay_core`` — PLB lookup
loop, PosMap remap (all three formats, both on-chip modes, group remaps
included), PRF, PMMAC and the tree accesses, one C call per request.
The state is the frontend's own typed columns, which both spellings
work on in place, so the bar is the reference's: after **every** access
a kernel-driven frontend and an interpreted one (no native code anywhere
under it) must agree on

- the ``AccessResult`` and the full ``FrontendStats``;
- the PLB: its five columns whole — tags, leaves, counters, ``last_use``
  and payload, set by set, way order included — and the same through
  ``entries()``, plus ``_clock``, hits and misses;
- the on-chip column and both kinds of first-touch bitmap;
- the PRF's ``call_count``, the MAC's ``call_count``/``bytes_hashed``,
  and the RNG's state;
- the tree digest, the stash snapshot and the backend's counters.

Further layers: the vendored BLAKE2b against ``hashlib`` (Hypothesis
keys, messages and digest sizes, the RFC vector, block-boundary
lengths); 1..4 lanes of ``blake2b_lanes`` on each spelling the CPU has
(scalar everywhere, the four-lane AVX-512VL compression where it
exists), PRF and MAC lanes mixed, each against ``hashlib``; the kernel's PRF as the
stateless formula (every resident PLB leaf is one keyed BLAKE2b of its
tag and counter, and ``call_count`` moves as the reference's); error
parity (bad op, wrong-length WRITE,
out-of-range address: same exception, same counters); the
engagement rules; and the structural guards — one kernel entry per
request, no interpreted frontend step under it, and a replay slice or a
serve batch driven C to C without a Python frame.
"""

import hashlib
import sys
from array import array

import pytest

from repro.backend.ops import Op
from repro.crypto.mac import Mac
from repro.crypto.prf import Prf
from repro.crypto.suite import CryptoSuite
from repro.errors import ConfigurationError
from repro.frontend.unified import PlbFrontend
from repro.presets import build_frontend
from repro.sim.engine import ReplayEngine
from repro.sim.native import load_native_core, unavailable_reason
from repro.sim.system import replay_trace
from repro.sim.timing import OramTimingModel
from repro.storage.snapshot import tree_digest
from repro.utils.rng import DeterministicRng

from test_equivalence_golden import reference_leaf_for
from test_native_replay import CountingKernel, slice_counts
from test_replay_differential import (
    chunked, frontend_columns, make_trace, stats_image,
)

CORE = load_native_core()
pytestmark = pytest.mark.skipif(
    CORE is None,
    reason=unavailable_reason(),
)

#: Small enough that the PLB evicts, the recursion is three or four deep
#: and a full state image after every access stays cheap.
SMALL = dict(num_blocks=2**9, onchip_entries=4, plb_capacity_bytes=512)

#: 2-bit individual counters roll over on every fourth touch; fan-out 8
#: keeps the recursion four deep, so rolled-over groups have siblings in
#: the PLB, in the tree and (at level 0) among the data blocks.
ROLLOVER = dict(SMALL, compressed_beta=2, compressed_fanout=8)

#: name -> (scheme, spec overrides): the four paper schemes, a 2-way and
#: a fully associative PLB (all eight entries one set), and the
#: small-beta variants that force group remaps.
CONFIGS = {
    "P_X16": ("P_X16", SMALL),
    "PC_X32": ("PC_X32", SMALL),
    "PI_X8": ("PI_X8", SMALL),
    "PIC_X32": ("PIC_X32", SMALL),
    "PIC_X32/2-way": ("PIC_X32", dict(SMALL, plb_ways=2)),
    "PIC_X32/full": ("PIC_X32", dict(SMALL, plb_ways=8)),
    "PIC_X32/beta=2": ("PIC_X32", ROLLOVER),
    "PC_X32/beta=2": ("PC_X32", ROLLOVER),
}


def build(name, seed=7, **overrides):
    scheme, fields = CONFIGS[name]
    return build_frontend(
        scheme, rng=DeterministicRng(seed), storage="columnar",
        crypto=CryptoSuite.fast(), **dict(fields, **overrides),
    )


def engage(frontend):
    """Both kernels on, as ``ReplayEngine.enable_native`` does it."""
    frontend.enable_native_kernel(CORE)
    assert isinstance(frontend._kernel, CORE.FrontendKernel)
    return frontend


def pair(name, **kwargs):
    """The interpreted reference and a kernel-driven twin."""
    return build(name, **kwargs), engage(build(name, **kwargs))


def full_state(frontend):
    """Everything the bit-identity contract names, for one frontend."""
    backend = frontend.backend
    return {
        "stats": stats_image(frontend),
        **frontend_columns(frontend),
        "rng": frontend.rng._rng.getstate(),
        "tree": tree_digest(backend.storage),
        "stash": backend.stash_snapshot(),
        "backend": (
            backend.access_count, backend.tree_access_count,
            backend.append_count, backend.storage.buckets_read,
            backend.storage.buckets_written,
        ),
    }


class CounterProbe:
    """A storage observer that images every counter at each path event."""

    COUNTERS = ("stats", "plb_counters", "prf", "mac", "backend")

    def __init__(self, frontend):
        self.frontend = frontend
        self.seen = []
        frontend.backend.storage.observer = self

    def image(self):
        state = full_state(self.frontend)
        return {key: state[key] for key in self.COUNTERS}

    def on_path_read(self, leaf, indices):
        self.seen.append(("read", leaf, self.image()))

    def on_path_write(self, leaf, indices):
        self.seen.append(("write", leaf, self.image()))


def assert_same_state(ref, nat, context):
    ref_state, nat_state = full_state(ref), full_state(nat)
    for key in ref_state:
        assert ref_state[key] == nat_state[key], (context, key)


def drive(ref, nat, steps, seed, hot=64, write_share=0.3):
    """Seeded requests against both; compare after every one."""
    rng = DeterministicRng(seed)
    blocks, block_bytes = ref.num_blocks, ref.config.block_bytes
    for index in range(steps):
        addr = rng.randrange(hot if rng.random() < 0.4 else blocks)
        if rng.random() < write_share:
            args = (addr, Op.WRITE, bytes([rng.randrange(256)]) * block_bytes)
        else:
            args = (addr, Op.READ)
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
        drive(ref, nat, steps=400, seed=seed)
        assert ref.stats.plb_evictions > 0
        assert ref.stats.accesses == 400

    def test_two_way_plb_picks_the_lru_way(self):
        ref, nat = pair("PIC_X32/2-way")
        drive(ref, nat, steps=500, seed=11, hot=256)
        assert ref.plb.ways == 2 and ref.stats.plb_evictions > 50

    @pytest.mark.parametrize("name", ("PIC_X32/beta=2", "PC_X32/beta=2"))
    def test_group_remaps_with_resident_and_relocated_siblings(self, name):
        """2-bit ICs roll over on every fourth touch of an entry: PosMap
        levels remap groups whose siblings sit in the PLB (bookkeeping
        only) or in the tree (readrmv + re-seal + append), and the data
        level relocates whole sibling groups of data blocks."""
        ref, nat = pair(name)
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
        drive(ref, nat, steps=400, seed=5, hot=16, write_share=0.5)
        assert ref.stats.group_remaps > 5
        assert ref.stats.group_relocations > 100
        assert any(resident) and not all(resident)

    def test_full_associativity_scans_one_set(self):
        ref, nat = pair("PIC_X32/full")
        drive(ref, nat, steps=300, seed=13, hot=256)
        assert nat.plb.num_sets == 1 and nat.plb.ways == 8
        assert len(nat.plb) == 8 and ref.stats.plb_evictions > 50

    def test_single_level_recursion_has_no_plb_traffic(self):
        """Everything resolves on-chip: no lookup, no hit, no miss."""
        ref, nat = pair("PI_X8", num_blocks=64, onchip_entries=64)
        assert ref.space_levels == 1
        drive(ref, nat, steps=150, seed=2)
        assert ref.stats.plb_hits == ref.stats.plb_misses == 0

    def test_engaging_mid_run_continues_the_same_state(self):
        """``replay_trace`` enables per slice: whatever ran interpreted
        before the handle existed is the state it continues from."""
        ref, nat = build("PIC_X32"), build("PIC_X32")
        drive(ref, nat, steps=150, seed=6)
        engage(nat)
        kernel = nat._kernel
        nat.enable_native_kernel(CORE)
        assert nat._kernel is kernel
        drive(ref, nat, steps=150, seed=7)

    @pytest.mark.parametrize("name", ("PIC_X32/beta=2", "PIC_X32/full", "P_X16"))
    def test_python_path_and_kernel_interleave_on_one_state(self, name):
        """One copy of state: requests may alternate between the handle
        and the interpreted body without either noticing — the columns
        one leaves are the columns the other finds."""
        ref, nat = pair(name)
        kernel = nat._kernel
        rng = DeterministicRng(12)
        for index in range(300):
            nat._kernel = kernel if rng.random() < 0.5 else None
            addr = rng.randrange(256)
            assert ref.access(addr) == nat.access(addr), index
            assert_same_state(ref, nat, index)


# ---------------------------------------------------------------------------
# BLAKE2b known answers
# ---------------------------------------------------------------------------


class TestVendoredBlake2b:
    hypothesis = pytest.importorskip("hypothesis")

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=300, deadline=None)
    @given(
        key=st.binary(max_size=64),
        message=st.binary(max_size=400),
        digest_size=st.integers(1, 64),
    )
    def test_matches_hashlib(self, key, message, digest_size):
        expected = hashlib.blake2b(
            message, key=key, digest_size=digest_size
        ).digest()
        assert CORE.blake2b(key, message, digest_size) == expected

    def test_rfc_7693_appendix_a(self):
        assert CORE.blake2b(b"", b"abc", 64).hex() == (
            "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1"
            "7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923"
        )

    @pytest.mark.parametrize("length", (0, 1, 127, 128, 129, 255, 256, 257))
    @pytest.mark.parametrize("key", (b"", b"k", b"K" * 64))
    def test_block_boundaries(self, length, key):
        """An empty message, one byte, and one byte either side of every
        128-byte block edge: where the last-block flag and the buffered
        key block change hands."""
        message = bytes(range(256)) * 2
        for digest_size in (1, 16, 28, 64):
            assert CORE.blake2b(key, message[:length], digest_size) == (
                hashlib.blake2b(
                    message[:length], key=key, digest_size=digest_size
                ).digest()
            )

    @pytest.mark.parametrize(
        "args", [(b"k" * 65, b"", 16), (b"", b"", 0), (b"", b"", 65)]
    )
    def test_rejects_out_of_range_parameters(self, args):
        with pytest.raises(ValueError):
            CORE.blake2b(*args)

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            CORE.blake2b("key", b"", 16)


# ---------------------------------------------------------------------------
# The kernel's PRF holds no state
# ---------------------------------------------------------------------------


def assert_plb_leaves_follow_the_formula(frontend):
    """Every resident PLB entry's leaf is the formula of its tag and
    counter (PMMAC schemes: no leaf is drawn at random)."""
    prf, levels = frontend.crypto.prf, frontend.config.levels
    entries = [way.detach() for way in frontend.plb.entries()]
    assert entries
    for entry in entries:
        assert entry.leaf == reference_leaf_for(
            prf.key, entry.tagged_addr, entry.counter, levels
        ), entry


class TestKernelPrfIsStateless:
    @pytest.mark.parametrize(
        "name",
        (
            "PIC_X32", "PI_X8", "PIC_X32/2-way", "PIC_X32/full",
            "PIC_X32/beta=2", "PC_X32",
        ),
    )
    def test_call_count_moves_as_the_references_after_every_access(self, name):
        ref, nat = pair(name)
        rng = DeterministicRng(31)
        for index in range(300):
            addr = rng.randrange(64 if rng.random() < 0.4 else ref.num_blocks)
            assert ref.access(addr) == nat.access(addr), index
            assert ref.crypto.prf.call_count == nat.crypto.prf.call_count, index
        assert nat.crypto.prf.call_count > 600
        assert nat.crypto.prf.cache_hits == 0
        assert_plb_leaves_follow_the_formula(nat)

    def test_the_same_key_gives_the_same_leaves_in_any_order(self):
        """Two frontends whose PRFs evaluate different histories of keys
        — one drives a warm-up the other skips — still agree with the
        formula on every leaf they hold."""
        warm, cold = build("PIC_X32/2-way"), build("PIC_X32/2-way")
        engage(warm), engage(cold)
        rng = DeterministicRng(5)
        for _ in range(200):
            warm.access(rng.randrange(warm.num_blocks))
        for frontend in (warm, cold):
            for addr in range(0, frontend.num_blocks, 7):
                frontend.access(addr)
            assert_plb_leaves_follow_the_formula(frontend)

    @pytest.mark.parametrize("key_length", (0, 1, 16, 33, 64))
    def test_every_blake2b_key_length_gives_the_formula(self, key_length):
        """The kernel keys its mid-state once, from ``prf.key``: an empty
        key (no key block at all), a full 64-byte one and lengths between
        give the reference's leaves and counts, request by request."""
        key = bytes(range(7, 7 + key_length))

        def keyed():
            suite = CryptoSuite.fast()
            suite.prf = Prf(key)
            return build_frontend(
                "PIC_X32", rng=DeterministicRng(7), storage="columnar",
                crypto=suite, **SMALL,
            )

        ref, nat = keyed(), engage(keyed())
        rng = DeterministicRng(17)
        for index in range(150):
            addr = rng.randrange(nat.num_blocks)
            assert ref.access(addr) == nat.access(addr), index
        assert_same_state(ref, nat, f"key of {key_length} bytes")
        assert nat.crypto.prf.key == key
        assert_plb_leaves_follow_the_formula(nat)


def prf_lane(key, address, count):
    """A PRF leaf's lane: addr (8) || count (12) || subblock (4, zero)."""
    message = address.to_bytes(8, "little") + count.to_bytes(12, "little")
    return (key, 16, message + bytes(4))


def leaf_of(digest, levels):
    return int.from_bytes(digest, "little") & ((1 << levels) - 1)


class TestLaneSpellings:
    """Every BLAKE2b compression a request has ready at one moment — a
    remap's two leaves, a seal, a READ's verify — is one lane of one
    ``blake2b_lanes`` call: four AVX-512VL lanes where the CPU has
    AVX-512F+VL, one scalar compression per lane elsewhere (``LANES``
    names the one this host runs).  ``_lanes`` runs a named spelling on
    1..4 lanes, each with its own key, digest size and message; every
    lane must be ``hashlib.blake2b`` of its own inputs."""

    hypothesis = pytest.importorskip("hypothesis")

    from hypothesis import given, settings
    from hypothesis import strategies as st

    SPELLINGS = ("scalar", "avx512vl")
    COUNT = st.integers(0, 2**96 - 1)
    #: A lane as the kernel makes them: a PRF leaf, or a MAC over one
    #: block (c || a || d of 20 + block bytes), or anything that fits.
    LANE = st.one_of(
        st.builds(
            prf_lane, st.binary(max_size=64), st.integers(0, 2**64 - 1),
            COUNT,
        ),
        st.tuples(
            st.binary(max_size=64), st.integers(1, 64),
            st.binary(min_size=1, max_size=128),
        ),
    )

    @staticmethod
    def spelling_or_skip(spelling):
        if spelling != "scalar" and CORE.LANES != spelling:
            pytest.skip(f"this CPU lacks {spelling} (avx512f + avx512vl)")

    @staticmethod
    def expected(lanes):
        return [
            hashlib.blake2b(message, key=key, digest_size=size).digest()
            for key, size, message in lanes
        ]

    @pytest.mark.parametrize("spelling", SPELLINGS)
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_lane_is_hashlib(self, spelling, width, data):
        self.spelling_or_skip(spelling)
        lanes = data.draw(self.st.lists(self.LANE, min_size=width,
                                        max_size=width))
        assert CORE._lanes(spelling, lanes) == self.expected(lanes)

    @pytest.mark.parametrize("spelling", SPELLINGS)
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_prf_and_mac_lanes_mixed(self, spelling, width):
        """The shapes a request puts side by side: a victim's or a READ's
        seal (MAC, 14-byte tag over 84 bytes) beside a remap's leaf pair
        (PRF, 16-byte digest over 24 bytes), under different keys."""
        self.spelling_or_skip(spelling)
        block = bytes(range(64))
        mac = (b"m" * 16, 14, (5).to_bytes(12, "little")
               + (7).to_bytes(8, "little") + block)
        shapes = [
            mac,
            prf_lane(b"p" * 16, 7, 2**64 - 1),
            prf_lane(b"p" * 16, 7, 2**64),
            (b"", 64, b"\xff" * 128),
        ]
        for start in range(4):
            lanes = (shapes[start:] + shapes[:start])[:width]
            assert CORE._lanes(spelling, lanes) == self.expected(lanes)

    @pytest.mark.parametrize("spelling", SPELLINGS)
    @settings(max_examples=150, deadline=None)
    @given(
        key=st.binary(max_size=64),
        address=st.integers(0, 2**64 - 1),
        count=st.integers(0, 2**96 - 2),
        levels=st.integers(1, 60),
    )
    def test_a_remap_pair_is_the_formula(
        self, spelling, key, address, count, levels
    ):
        self.spelling_or_skip(spelling)
        old, new = CORE._lanes(
            spelling,
            [prf_lane(key, address, count), prf_lane(key, address, count + 1)],
        )
        assert (leaf_of(old, levels), leaf_of(new, levels)) == (
            reference_leaf_for(key, address, count, levels),
            reference_leaf_for(key, address, count + 1, levels),
        )

    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_the_spellings_agree_on_every_repeat(self, spelling):
        self.spelling_or_skip(spelling)
        lanes = [
            prf_lane(b"k" * 16, 2**64 - 1, 2**96 - 2),
            prf_lane(b"k" * 16, 2**64 - 1, 2**96 - 1),
            (b"m" * 16, 14, bytes(84)),
        ]
        assert CORE._lanes(spelling, lanes, 5) == CORE._lanes("scalar", lanes)

    def test_the_host_runs_a_named_spelling(self):
        assert CORE.LANES in self.SPELLINGS

    def test_a_spelling_the_cpu_lacks_raises(self):
        lacking = {"avx512vl", "sse2", "avx2"} - {CORE.LANES}
        for spelling in sorted(lacking):
            with pytest.raises(ValueError, match="no lanes spelling"):
                CORE._lanes(spelling, [prf_lane(b"key", 3, 4)])

    @pytest.mark.parametrize(
        "lanes",
        [
            [],
            [(b"k", 16, b"m")] * 5,
            [(b"k" * 65, 16, b"m")],
            [(b"k", 0, b"m")],
            [(b"k", 65, b"m")],
            [(b"k", 16, b"")],
            [(b"k", 16, bytes(129))],
            [(b"k", 16)],
            [("k", 16, b"m")],
        ],
        ids=["none", "five", "long-key", "digest-0", "digest-65",
             "empty-message", "two-blocks", "short-item", "str-key"],
    )
    def test_rejects_lanes_out_of_range(self, lanes):
        with pytest.raises((ValueError, TypeError)):
            CORE._lanes("scalar", lanes)

    def test_rejects_a_repeat_below_one(self):
        with pytest.raises(ValueError, match="repeat 1 or more"):
            CORE._lanes("scalar", [prf_lane(b"k", 0, 0)], 0)


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

    @pytest.mark.parametrize("name", ("P_X16", "PIC_X32"))
    def test_rejected_requests_leave_the_reference_state(self, name):
        ref, nat = pair(name)
        drive(ref, nat, steps=50, seed=1)
        block = bytes(ref.config.block_bytes)
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
        for addr in (-1, ref.num_blocks, 2**70):
            assert self.both_raise(ref, nat, addr) == (
                ValueError, f"address {addr} out of range"
            )
        assert ref.stats.accesses == before + 3
        drive(ref, nat, steps=50, seed=2)

    def first_failure(self, ref, nat, steps, seed, hot):
        """Drive both in lockstep until a request fails; it must fail on
        both, with one exception and one state left behind."""
        rng = DeterministicRng(seed)
        for index in range(steps):
            addr = rng.randrange(hot)
            errors = []
            for frontend in (ref, nat):
                try:
                    frontend.access(addr)
                except Exception as exc:  # noqa: BLE001 - compared below
                    errors.append((type(exc), str(exc)))
            assert len(errors) in (0, 2), (index, errors)
            assert_same_state(ref, nat, index)
            if errors:
                assert errors[0] == errors[1]
                return errors[0]
        raise AssertionError("no request failed")

    def test_onchip_counter_overflow(self):
        ref, nat = pair("PIC_X32")
        drive(ref, nat, steps=30, seed=1)
        for frontend in (ref, nat):
            table = frontend.posmap._table
            table[0] = 2**64 - 1
        for frontend in (ref, nat):
            frontend.plb.tags[:] = type(frontend.plb.tags)("q", [-1] * 8)
        assert self.both_raise(ref, nat, 0) == (
            ConfigurationError, "on-chip counter overflow"
        )

    def test_group_counter_overflow(self):
        """alpha = 2: the fourth rollover of one group has no GC left."""
        ref, nat = pair("PC_X32/beta=2", compressed_alpha=2)
        assert self.first_failure(ref, nat, steps=400, seed=5, hot=8) == (
            ConfigurationError, "group counter overflow (alpha too small)"
        )
        assert ref.stats.group_remaps >= 3

    def test_duplicate_plb_insert(self):
        """Only a draw that installs the block behind the request's back
        gets there (P_X16 draws between the lookup loop and the refill):
        the clock has ticked, the refill's tree access has committed."""
        from test_native_boundary import cold_address

        ref, nat = pair("P_X16")
        drive(ref, nat, steps=60, seed=3)
        addr, fanout = cold_address(ref), ref.space.fanout
        for frontend in (ref, nat):
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
        nat._kernel = None
        engage(nat)  # bind the hostile draw
        assert self.both_raise(ref, nat, addr) == (
            ValueError, "block already resident in PLB"
        )

    def test_onchip_index_out_of_range(self):
        """A handle told of fewer on-chip entries than the chain reaches
        refuses in ``OnChipPosMap.lookup_and_remap``'s words."""
        from repro.frontend.posmap import OnChipPosMap
        from test_native_boundary import frontend_kernel_args

        frontend = build("PI_X8", num_blocks=2**12, onchip_entries=8)
        args = frontend_kernel_args(frontend)
        top = args["geometry"][3][-1]
        assert top > 1
        args["geometry"] = args["geometry"][:6] + (1,)
        kernel = CORE.FrontendKernel(*args.values())
        messages = []
        for call in (
            lambda: kernel.access(frontend.num_blocks - 1, Op.READ, None),
            lambda: OnChipPosMap(
                entries=1, levels=4, mode="counter", prf=frontend.crypto.prf
            ).lookup_and_remap(top - 1, 0),
        ):
            with pytest.raises(ValueError) as err:
                call()
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            f"on-chip PosMap index {top - 1} out of range"
        )

    def written_then_mutated(self, tiers, size):
        """WRITE a bytearray and a memoryview of one, scribble on the
        caller's buffer afterwards, READ back: every tier must hold the
        bytes it was handed — the ORAM's contents never change without
        an access."""
        for index, wrap in enumerate((lambda buf: buf, memoryview)):
            original = bytes([0x11 + index]) * size
            for frontend in tiers:
                buf = bytearray(original)
                frontend.access(index, Op.WRITE, wrap(buf))
                buf[0] ^= 0xFF
                read = frontend.read(index)
                assert type(read) is bytes and read == original

    @pytest.mark.parametrize("name", ("P_X16", "PIC_X32"))
    def test_bytes_like_write_payloads(self, name):
        scheme, fields = CONFIGS[name]
        reference = build_frontend(
            scheme, rng=DeterministicRng(7), storage="object", **fields
        )
        ref, nat = pair(name)
        self.written_then_mutated((reference, ref, nat), ref.config.block_bytes)
        assert_same_state(ref, nat, name)
        assert stats_image(reference) == stats_image(nat)
        assert tree_digest(reference.backend.storage) == tree_digest(
            nat.backend.storage
        )

    def test_bytes_like_write_payloads_recursive(self):
        """The ``R_X8`` twin: reference tier, fast tier interpreted, and
        the ``RecursiveKernel``."""
        tiers = [
            build_frontend(
                "R_X8", num_blocks=2**9, onchip_entries=4,
                rng=DeterministicRng(7), storage=storage,
            )
            for storage in ("object", "columnar", "columnar")
        ]
        size = tiers[0].configs[0].block_bytes
        self.written_then_mutated(tiers[:2], size)
        ReplayEngine(tiers[2], OramTimingModel(1000.0)).enable_native(CORE)
        assert isinstance(tiers[2]._kernel, CORE.RecursiveKernel)
        self.written_then_mutated(tiers[2:], size)
        digests = [
            [tree_digest(b.storage) for b in frontend.backends]
            for frontend in tiers
        ]
        assert digests[0] == digests[1] == digests[2]


# ---------------------------------------------------------------------------
# Engagement
# ---------------------------------------------------------------------------


class TestEngagement:
    def test_none_is_a_no_op_and_the_handle_is_made_once(self):
        frontend = build("PIC_X32")
        frontend.enable_native_kernel(None)
        assert frontend._kernel is None
        engage(frontend)

    def test_needs_the_backend_kernel_first(self):
        """The tree must be a real ``AccessKernel``: one that is not (here
        wrapped for counting) keeps the Python path, which reaches the
        tree through the wrapper."""
        frontend = build("PIC_X32")
        backend = frontend.backend
        backend._kernel = CountingKernel(backend._kernel)
        frontend.enable_native_kernel(CORE)
        assert frontend._kernel is None
        frontend.read(3)
        assert backend._kernel.entries == backend.access_count > 0

    def test_object_storage_keeps_the_python_path(self):
        frontend = build_frontend(
            "PIC_X32", rng=DeterministicRng(7), storage="object", **SMALL
        )
        engine = ReplayEngine(frontend, OramTimingModel(1000.0))
        engine.enable_native(CORE)
        assert frontend._kernel is None

    def test_reference_suite_keeps_the_python_path(self):
        frontend = build_frontend(
            "PIC_X32", rng=DeterministicRng(7), storage="columnar",
            crypto=CryptoSuite.reference(), **SMALL,
        )
        engine = ReplayEngine(frontend, OramTimingModel(1000.0))
        engine.enable_native(CORE)
        assert isinstance(frontend.backend._kernel, CORE.AccessKernel)
        assert frontend._kernel is None

    @pytest.mark.parametrize("primitive", ("prf", "mac"))
    def test_either_primitive_off_blake2b_keeps_the_python_path(self, primitive):
        """The kernel keys BLAKE2b mid-states for both the PRF and the MAC:
        an AES PRF beside a BLAKE2b MAC, or a SHA3 MAC beside a BLAKE2b
        PRF, is served by the interpreted path."""
        suite = CryptoSuite.fast()
        if primitive == "prf":
            suite.prf = Prf(suite.prf.key, Prf.MODE_AES)
        else:
            suite.mac = Mac(suite.mac.key, Mac.MODE_SHA3)
        frontend = build_frontend(
            "PIC_X32", rng=DeterministicRng(7), storage="columnar",
            crypto=suite, **SMALL,
        )
        frontend.enable_native_kernel(CORE)
        assert isinstance(frontend.backend._kernel, CORE.AccessKernel)
        assert frontend._kernel is None
        frontend.read(3)
        assert frontend.crypto.prf.call_count > 0

    def test_wide_counter_fields_keep_the_python_path(self):
        frontend = build_frontend(
            "PC_X32", rng=DeterministicRng(7), storage="columnar",
            compressed_beta=40, compressed_fanout=8, **SMALL,
        )
        frontend.enable_native_kernel(CORE)
        assert frontend._kernel is None
        frontend.read(3)

    def test_engine_engages_backend_then_frontend(self):
        frontend = build("PIC_X32")
        engine = ReplayEngine(frontend, OramTimingModel(1000.0))
        engine.enable_native(CORE)
        assert isinstance(frontend._kernel, CORE.FrontendKernel)

    def test_recursive_frontend_gets_its_own_kernel(self):
        """``R_X8`` is no PLB frontend: the engine hands it a
        ``RecursiveKernel`` (``tests/test_native_recursive.py``), on
        columnar storage only."""
        for storage, kernel_type in (
            ("columnar", CORE.RecursiveKernel), ("object", type(None)),
        ):
            frontend = build_frontend(
                "R_X8", num_blocks=2**10, rng=DeterministicRng(7),
                storage=storage,
            )
            ReplayEngine(frontend, OramTimingModel(1000.0)).enable_native(CORE)
            assert type(frontend._kernel) is kernel_type

    def test_a_discarded_frontend_is_freed_by_refcount(self):
        """And its tree with it: a handle ⇄ stash cycle would park the
        bucket columns — megabytes at paper scale — on the collector."""
        import gc
        import weakref

        frontend = engage(build("PIC_X32"))
        frontend.read(1)
        probes = [weakref.ref(frontend), weakref.ref(frontend.backend.storage)]
        gc.disable()
        try:
            del frontend
            assert all(probe() is None for probe in probes)
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# Structural guards
# ---------------------------------------------------------------------------


def python_frames_during(call):
    """Names of the library's Python functions entered while ``call``
    runs (frames from outside ``repro``, like a gc callback, ignored)."""
    entered = []

    def profiler(frame, event, _arg):
        if event == "call" and "repro" in frame.f_code.co_filename:
            entered.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, entered


class TestStructure:
    def test_one_kernel_entry_per_request(self):
        ref, nat = pair("PIC_X32/beta=2")
        nat._kernel = CountingKernel(nat._kernel)
        rng = DeterministicRng(3)
        for index in range(200):
            addr = rng.randrange(64)
            assert ref.access(addr) == nat.access(addr)
            assert nat._kernel.entries == index + 1
        assert ref.stats.group_relocations > 0

    def test_no_interpreted_frontend_step_runs_under_the_kernel(
        self, monkeypatch
    ):
        nat = engage(build("PIC_X32/beta=2"))

        def unreachable(*args, **kwargs):
            raise AssertionError("interpreted frontend step under the kernel")

        for owner, names in (
            (nat, ("_verify", "_seal", "_remap_child", "_group_remap",
                   "_refill_plb", "_evict_plb_entry", "_fresh_leaf_override")),
            (nat.plb, ("lookup", "insert", "peek")),
            (nat.format, ("remap", "leaf_for_counter")),
            (nat.posmap, ("lookup_and_remap",)),
            (nat.crypto.prf, ("leaf_for", "leaf_for_many", "eval_bytes")),
            (nat.crypto.mac, ("tag", "verify", "block_tag")),
            (nat.backend, ("access", "_abort_access")),
            (nat.space, ("chain", "tag", "child_slot", "level_blocks")),
        ):
            for name in names:
                monkeypatch.setattr(owner, name, unreachable)
        rng = DeterministicRng(8)
        block = bytes(nat.config.block_bytes)
        for _ in range(300):
            nat.access(rng.randrange(128), Op.WRITE, block)
            nat.access(rng.randrange(nat.num_blocks))
        assert nat.stats.group_relocations > 0 and nat.stats.plb_evictions > 0

    def test_a_replay_slice_is_one_c_call(self):
        """Handed the unpatched bound ``access`` of an engaged frontend,
        the access loop never enters a Python frame."""
        ref, nat = pair("PIC_X32")
        rng = DeterministicRng(21)
        addrs = [rng.randrange(ref.num_blocks) for _ in range(300)]
        writes = [rng.random() < 0.3 for _ in range(300)]
        payload = bytes(ref.config.block_bytes)
        expected = [
            ref.access(a, Op.WRITE, payload).tree_accesses if w
            else ref.access(a).tree_accesses
            for a, w in zip(addrs, writes)
        ]
        counts, entered = python_frames_during(
            lambda: slice_counts(nat.access, addrs, writes, payload)
        )
        assert counts == expected
        # The arena growing a chunk is the storage's own method; nothing
        # of the frontend, the crypto or the backend runs interpreted.
        assert set(entered) <= {"_grow"}
        assert_same_state(ref, nat, "after the slice")

    def test_a_slice_with_a_busy_stash_and_an_arena_growth(self):
        """Z=2 leaves blocks in the stash from one event to the next, and
        700 first touches outgrow the arena's first chunk: the stash
        column rebuilt from leftovers and the arena columns exported
        again after each growth, all inside one C call (this is the
        sanitizer lane's slice)."""
        ref, nat = pair("PIC_X32", num_blocks=2**12, blocks_per_bucket=2)
        addrs = list(range(0, 2**12, 5))[:700]
        writes = [index % 3 == 0 for index in range(700)]
        payload = bytes(range(ref.config.block_bytes))
        arena = nat.backend.storage.addr_col
        assert len(arena) <= 512
        counts = [
            slice_counts(frontend.access, addrs, writes, payload)
            for frontend in (ref, nat)
        ]
        assert counts[0] == counts[1]
        assert len(arena) >= 2 * 512
        occupancy = nat.backend.stash.occupancy_stats
        assert occupancy.max >= 4 and occupancy.mean > 0.5
        assert_same_state(ref, nat, "after the slice")

    def test_a_pmmac_slice_on_a_two_way_plb(self):
        """900 requests on a PIC_X32 tree, all inside one C call on each
        side: every remap derives its leaves in ``fk_leaf_for`` and every
        fetch checks a tag in ``fk_mac``, and the 2-way PLB's victim
        choice scans stamps — the sanitizer lane's frontend slice."""
        ref, nat = pair("PIC_X32/2-way")
        rng = DeterministicRng(23)
        addrs = [rng.randrange(ref.num_blocks) for _ in range(900)]
        writes = [index % 4 == 0 for index in range(900)]
        payload = bytes(range(ref.config.block_bytes))
        assert nat.plb.ways == 2
        (_, entered), (counts, entered_nat) = (
            python_frames_during(
                lambda: slice_counts(frontend.access, addrs, writes, payload)
            )
            for frontend in (ref, nat)
        )
        assert len(counts) == 900
        assert set(entered_nat) <= {"_grow"}
        assert nat.crypto.prf.call_count > 1500
        assert nat.stats.mac_checks > 900
        assert_plb_leaves_follow_the_formula(nat)
        assert_same_state(ref, nat, "after the slice")

    def test_an_observer_mid_slice_reads_the_per_request_counters(self):
        """Counters are counted in place, so whatever looks from inside
        the slice — an observer callback — sees the values the
        interpreted access would have left at that very point."""
        ref, nat = pair("PIC_X32/beta=2")
        drive(ref, nat, steps=60, seed=4)
        probes = [CounterProbe(frontend) for frontend in (ref, nat)]
        rng = DeterministicRng(17)
        addrs = [rng.randrange(64) for _ in range(120)]
        writes = [rng.random() < 0.3 for _ in range(120)]
        payload = bytes(ref.config.block_bytes)
        for frontend in (ref, nat):
            slice_counts(frontend.access, addrs, writes, payload)
        assert probes[0].seen == probes[1].seen
        # Two callbacks per tree access, each with its own image.
        seen = probes[1].seen
        assert len(seen) == 2 * (
            nat.backend.tree_access_count - seen[0][2]["backend"][1] + 1
        )
        assert len({repr(image) for _kind, _leaf, image in seen}) > len(seen) // 2
        assert ref.stats.group_relocations > 0
        assert_same_state(ref, nat, "after the slice")

    def test_a_patched_access_is_called_per_event(self):
        """A shim on the instance (the perf tracer's) is not the bound
        method: the loop calls it, and it reaches the kernel."""
        nat = engage(build("PIC_X32"))
        calls = []
        bound = nat.access

        def shim(*args):
            calls.append(args[0])
            return bound(*args)

        nat.access = shim
        slice_counts(nat.access, [1, 2, 3], [False] * 3)
        assert calls == [1, 2, 3] and nat.stats.accesses == 3

    def test_a_failing_event_stops_the_slice_where_python_would(self):
        ref, nat = pair("PIC_X32")
        addrs = [1, 2, ref.num_blocks, 3]
        for frontend in (ref, nat):
            with pytest.raises(ValueError, match="out of range"):
                slice_counts(frontend.access, addrs, [False] * 4)
        assert_same_state(ref, nat, "after the failed slice")
        assert nat.stats.accesses == 3

    def test_replay_engages_the_kernel_on_the_same_state(self):
        """``replay_trace`` is what switches the kernels on: slice by
        slice it leaves the full state the interpreted loop leaves."""
        timing = OramTimingModel(tree_latency_cycles=1000.0)
        ref, nat = build("PIC_X32"), build("PIC_X32")
        trace = make_trace(5, events=400, blocks=ref.num_blocks)
        for chunk in chunked(trace, batch=100):
            interpreted = replay_trace(ref, chunk, timing, mode="scalar")
            compiled = replay_trace(nat, chunk, timing, mode="compiled")
            assert interpreted == compiled
            assert repr(interpreted.cycles) == repr(compiled.cycles)
            assert_same_state(ref, nat, chunk.name)
        assert ref._kernel is None
        assert isinstance(nat._kernel, CORE.FrontendKernel)


class TestServeOnTheFrontendKernel:
    def run_serve(self):
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
        kernels = [shard.frontend._kernel for shard in service.shards]
        report = service.run("serial").report()
        report.pop("wall_seconds")
        for tenant in report["tenants"]:
            tenant.pop("wall_us")
        digests = [
            (tree_digest(shard.frontend.backend.storage),
             stats_image(shard.frontend))
            for shard in service.shards
        ]
        return kernels, report, digests

    def test_compiled_serve_equals_the_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "off")
        kernels, reference, reference_digests = self.run_serve()
        assert kernels == [None, None]
        monkeypatch.delenv("REPRO_NATIVE")
        kernels, compiled, compiled_digests = self.run_serve()
        assert all(isinstance(k, CORE.FrontendKernel) for k in kernels)
        assert compiled == reference
        assert compiled_digests == reference_digests
