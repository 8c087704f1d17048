"""The native PLB frontend kernel: what lockstep alone does not show.

``PlbFrontend.enable_native_kernel`` hands every processor request to a
``FrontendKernel`` in ``repro.sim.native._replay_core`` — PLB lookup
loop, PosMap remap (all three formats, both on-chip modes, group remaps
included), PRF, PMMAC and the tree accesses, one C call per request.
That the kernel leaves the reference's state after every access, under
every scheme, variant and request pattern, is ``tests/test_lockstep.py``
(the harness in ``tests/lockstep.py``).  Here: the vendored BLAKE2b
against ``hashlib`` (Hypothesis keys, messages and digest sizes, the RFC
vector, block-boundary lengths); 1..4 lanes of ``blake2b_lanes`` on each
spelling the CPU has (scalar everywhere, the four-lane AVX-512VL
compression where it exists), PRF and MAC lanes mixed, each against
``hashlib``; the kernel's PRF as the stateless formula under any key
length; WRITE payloads the caller scribbles on afterwards; the
engagement rules; and the structural guards — one kernel entry per
request, no interpreted frontend step under it, and a replay slice or a
serve batch driven C to C without a Python frame.
"""

import hashlib

import pytest

from repro.backend.ops import Op
from repro.crypto.mac import Mac
from repro.crypto.prf import Prf
from repro.crypto.suite import CryptoSuite
from repro.presets import build_frontend
from repro.sim.engine import ReplayEngine
from repro.sim.timing import OramTimingModel
from repro.storage.snapshot import tree_digest
from repro.utils.rng import DeterministicRng

from helpers import reference_leaf_for
from lockstep import (
    CORE, SMALL, VARIANTS, CountingKernel, assert_same_state, build, engage,
    lockstep, mixed, needs_core, pair, python_frames_during, slice_counts,
    state, stats_image,
)

pytestmark = needs_core


def variant(name, storage="columnar", **fields):
    """One frontend of a named variant, nothing engaged."""
    scheme, base = VARIANTS[name]
    return build(scheme, storage, **dict(base, **fields))


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
    def test_the_same_key_gives_the_same_leaves_in_any_order(self):
        """Two frontends whose PRFs evaluate different histories of keys
        — one drives a warm-up the other skips — still agree with the
        formula on every leaf they hold."""
        warm, cold = (engage(variant("PIC_X32/2-way")) for _ in range(2))
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

        def keyed(storage):
            suite = CryptoSuite.fast()
            suite.prf = Prf(key)
            return variant("PIC_X32", storage, crypto=suite)

        ref, nat = keyed("object"), engage(keyed("columnar"))
        requests = [(addr, Op.READ) for addr, *_ in mixed(ref, 17, 150)]
        assert lockstep(ref, nat, requests, f"key of {key_length} bytes") is None
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


class TestCompressionsPerReplay:
    """``_passes()`` counts the frontend kernels' ``blake2b_lanes`` calls
    and ``fk_mac``'s own compressions, whichever spelling runs them.  On
    one seeded PIC_X32 replay both are pinned: a change that drops a
    fusion — a refill's verify and victim seal beside the next level's
    leaf pair, a first READ's seal of the zeros — moves the second (the
    fusion took it from 2 792 to 254), and one that splits a call moves
    the first."""

    def replay(self, scheme, events):
        from repro.proc.hierarchy import MissEvent, MissTrace
        from repro.sim.system import replay_trace

        blocks = 2**18
        rng = DeterministicRng(2015)
        trace = MissTrace(name="uniform", instructions=events * 100,
                          mem_refs=events * 30)
        trace.events = [
            MissEvent(rng.randrange(blocks), rng.random() < 0.3)
            for _ in range(events)
        ]
        frontend = build_frontend(scheme, num_blocks=blocks,
                                  rng=DeterministicRng(7))
        before = CORE._passes()
        replay_trace(frontend, trace, OramTimingModel(tree_latency_cycles=1000.0),
                     scheme=scheme)
        assert frontend._kernel is not None
        return tuple(now - then for now, then in zip(CORE._passes(), before))

    def test_a_pic_x32_replay_is_pinned(self):
        assert self.replay("PIC_X32", 3000) == (6552, 254)

    def test_a_scheme_without_pmmac_makes_no_mac(self):
        lanes, scalar = self.replay("PC_X32", 3000)
        assert lanes > 3000 and scalar == 0


# ---------------------------------------------------------------------------
# WRITE payloads the caller keeps
# ---------------------------------------------------------------------------


def written_then_mutated(tiers, size):
    """WRITE a bytearray and a memoryview of one, scribble on the caller's
    buffer afterwards, READ back: every tier must hold the bytes it was
    handed — the ORAM's contents never change without an access."""
    for index, wrap in enumerate((lambda buf: buf, memoryview)):
        original = bytes([0x11 + index]) * size
        for frontend in tiers:
            buf = bytearray(original)
            frontend.access(index, Op.WRITE, wrap(buf))
            buf[0] ^= 0xFF
            read = frontend.read(index)
            assert type(read) is bytes and read == original


class TestBytesLikePayloads:
    @pytest.mark.parametrize("name", ("P_X16", "PIC_X32"))
    def test_bytes_like_write_payloads(self, name):
        """The reference, the fast tier interpreted and the kernel."""
        ref, nat = pair(name)
        plain = variant(name)
        written_then_mutated((ref, plain, nat), ref.config.block_bytes)
        assert_same_state(ref, nat, name)
        assert state(plain) == state(nat)

    def test_bytes_like_write_payloads_recursive(self):
        """The ``R_X8`` twin: reference tier, fast tier interpreted, and
        the ``RecursiveKernel``."""
        ref, nat = pair("R_X8")
        plain = variant("R_X8")
        written_then_mutated((ref, plain, nat), ref.configs[0].block_bytes)
        assert_same_state(ref, nat, "R_X8")
        assert state(plain) == state(nat)


# ---------------------------------------------------------------------------
# Engagement
# ---------------------------------------------------------------------------


class TestEngagement:
    def test_none_is_a_no_op_and_the_handle_is_made_once(self):
        frontend = variant("PIC_X32")
        frontend.enable_native_kernel(None)
        assert frontend._kernel is None
        engage(frontend)

    def test_needs_the_backend_kernel_first(self):
        """The tree must be a real ``AccessKernel``: one that is not (here
        wrapped for counting) keeps the Python path, which reaches the
        tree through the wrapper."""
        frontend = variant("PIC_X32")
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
        frontend = variant("PIC_X32")
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

        frontend = engage(variant("PIC_X32"))
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


class TestStructure:
    def test_one_kernel_entry_per_request(self):
        ref, nat = pair("PIC_X32/beta=2")
        nat._kernel = CountingKernel(nat._kernel)
        requests = [(addr, Op.READ) for addr, *_ in mixed(ref, 3, 200, hot=64)]
        for index, args in enumerate(requests):
            assert lockstep(ref, nat, [args], index) is None
            assert nat._kernel.entries == index + 1
        assert ref.stats.group_relocations > 0

    def test_no_interpreted_frontend_step_runs_under_the_kernel(
        self, monkeypatch
    ):
        nat = engage(variant("PIC_X32/beta=2"))

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
        assert lockstep(ref, nat, mixed(ref, 4, 60), "warm") is None
        seen = {id(ref): [], id(nat): []}

        class Probe:
            def __init__(self, frontend):
                self.frontend = frontend
                frontend.backend.storage.observer = self

            def image(self, kind, leaf):
                image = state(self.frontend)
                seen[id(self.frontend)].append((kind, leaf, {
                    key: image[key] for key in ("stats", "plb_counters", "prf", "mac")
                }, image["trees"][0]["counters"]))

            def on_path_read(self, leaf, indices):
                self.image("read", leaf)

            def on_path_write(self, leaf, indices):
                self.image("write", leaf)

        for frontend in (ref, nat):
            Probe(frontend)
        rng = DeterministicRng(17)
        addrs = [rng.randrange(64) for _ in range(120)]
        writes = [rng.random() < 0.3 for _ in range(120)]
        payload = bytes(nat.config.block_bytes)
        for frontend in (ref, nat):
            slice_counts(frontend.access, addrs, writes, payload)
        assert seen[id(ref)] == seen[id(nat)]
        # Two callbacks per tree access, each with its own image.
        rows = seen[id(nat)]
        assert len(rows) == 2 * (
            nat.backend.tree_access_count - rows[0][3][1] + 1
        )
        assert len({repr(row[2:]) for row in rows}) > len(rows) // 2
        assert nat.stats.group_relocations > 0
        assert_same_state(ref, nat, "after the slice")

    def test_a_patched_access_is_called_per_event(self):
        """A shim on the instance (the perf tracer's) is not the bound
        method: the loop calls it, and it reaches the kernel."""
        nat = engage(variant("PIC_X32"))
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
