"""Golden-digest equivalence: optimized hot paths vs seed implementations.

The replay-throughput overhaul (indexed PLB, packed PRF leaf
derivation, windowed compressed-counter remap, columnar tree storage,
fused backend eviction, native kernels) must be *performance-only*:
every observable result is required to be bitwise identical to the
original implementations. These tests pin that down three ways:

1. primitive-level: reference implementations transcribed from the seed
   (linear-scan PLB, three-way-concat PRF message, whole-block compressed
   remap) are driven with identical inputs;
2. configuration-level: the same replay executed on the reference tier
   and on the fast tier must produce dataclass-equal SimResults;
3. digest-level: SimResults are serialised and SHA-256 hashed, so any
   drift in any field — including float bit patterns — fails loudly.

The replay's *input* is pinned the same way: the SHA-256 of every
stand-in's trace image against a committed value, on whichever synthesis
path is active (the native kernel, or the interpreted generators and
``CacheHierarchy.run`` under ``REPRO_NATIVE=off``), so the two paths
cannot drift together.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prf import Prf
from repro.frontend.addrgen import AddressSpace
from repro.frontend.formats import CompressedPosMapFormat
from repro.frontend.plb import Plb, PlbEntry
from repro.presets import build_frontend
from repro.sim.native import load_native_core, unavailable_reason
from repro.sim.runner import SimulationRunner
from repro.sim.system import replay_trace
from repro.utils.rng import DeterministicRng

from helpers import (
    SCHEME_DIGESTS, TIMING, golden_digest, micro_trace, reference_leaf_for,
    result_digest,
)
from lockstep import frontend_digests, frontend_stashes

KEY = b"equivalence-key!"


def replay_reference(scheme: str):
    """(SimResult, frontend) on the reference tier: object + scalar."""
    frontend = build_frontend(
        scheme, num_blocks=2**12, rng=DeterministicRng(7), storage="object"
    )
    result = replay_trace(
        frontend, micro_trace(), TIMING, scheme=scheme, mode="scalar"
    )
    return result, frontend


def replay_fast(scheme: str):
    """(SimResult, frontend) as the ``fast_tier`` fixture resolves it."""
    frontend = build_frontend(scheme, num_blocks=2**12, rng=DeterministicRng(7))
    result = replay_trace(frontend, micro_trace(), TIMING, scheme=scheme)
    return result, frontend


# -- 1. primitive-level references ------------------------------------------------


class TestPrfEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        address=st.integers(min_value=0, max_value=2**52),
        count=st.integers(min_value=0, max_value=2**80),
        num_levels=st.integers(min_value=1, max_value=32),
        subblock=st.integers(min_value=0, max_value=2**20),
    )
    def test_packed_message_matches_seed_bytes(
        self, address, count, num_levels, subblock
    ):
        prf = Prf(KEY)
        assert prf.leaf_for(address, count, num_levels, subblock) == \
            reference_leaf_for(KEY, address, count, num_levels, subblock)

    def test_call_count_counts_logical_evaluations(self):
        """A repeated derivation is a second PRF call (bandwidth accounting)."""
        prf = Prf(KEY)
        prf.leaf_for(1, 1, 16)
        prf.leaf_for(1, 1, 16)
        assert prf.call_count == 2

    def test_repeated_derivation_returns_the_same_leaf(self):
        prf = Prf(KEY)
        cold = [prf.leaf_for(9, c, 20) for c in range(200)]
        warm = [prf.leaf_for(9, c, 20) for c in range(200)]
        assert warm == cold == [reference_leaf_for(KEY, 9, c, 20) for c in range(200)]
        assert prf.call_count == 400


class ReferencePlb:
    """The seed's linear-scan PLB (set lists only, no tag index)."""

    def __init__(self, capacity_bytes, block_bytes, ways=1):
        total = (capacity_bytes // block_bytes)
        total -= total % ways
        self.ways = ways
        self.num_sets = total // ways
        self._sets = [[] for _ in range(self.num_sets)]
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def _set_index(self, tagged_addr):
        level = tagged_addr >> 48
        index = tagged_addr & ((1 << 48) - 1)
        return (index + level * 7919) % self.num_sets

    def lookup(self, tagged_addr):
        self._clock += 1
        for entry in self._sets[self._set_index(tagged_addr)]:
            if entry.tagged_addr == tagged_addr:
                entry.last_use = self._clock
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def insert(self, entry):
        self._clock += 1
        entry.last_use = self._clock
        bucket = self._sets[self._set_index(entry.tagged_addr)]
        if len(bucket) < self.ways:
            bucket.append(entry)
            return None
        victim_pos = min(range(len(bucket)), key=lambda i: bucket[i].last_use)
        victim = bucket[victim_pos]
        bucket[victim_pos] = entry
        return victim

    def invalidate(self, tagged_addr):
        bucket = self._sets[self._set_index(tagged_addr)]
        for pos, entry in enumerate(bucket):
            if entry.tagged_addr == tagged_addr:
                return bucket.pop(pos)
        return None


class TestPlbEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        ways=st.sampled_from([1, 2, 4]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["lookup", "insert", "invalidate"]),
                st.integers(min_value=0, max_value=3),   # level
                st.integers(min_value=0, max_value=40),  # index
            ),
            min_size=1,
            max_size=120,
        ),
    )
    def test_indexed_plb_matches_linear_scan(self, ways, ops):
        new = Plb(capacity_bytes=8 * 64, block_bytes=64, ways=ways)
        ref = ReferencePlb(capacity_bytes=8 * 64, block_bytes=64, ways=ways)
        for op, level, index in ops:
            tag = AddressSpace.tag(level, index)
            if op == "lookup":
                a, b = new.lookup(tag), ref.lookup(tag)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.tagged_addr == b.tagged_addr
            elif op == "insert":
                entry_new = PlbEntry(tag, bytearray(64), leaf=index)
                entry_ref = PlbEntry(tag, bytearray(64), leaf=index)
                try:
                    va = new.insert(entry_new)
                except ValueError:
                    continue  # duplicate: reference would scan and keep both
                vb = ref.insert(entry_ref)
                assert (va is None) == (vb is None)
                if va is not None:
                    assert va.tagged_addr == vb.tagged_addr
            else:
                ra, rb = new.invalidate(tag), ref.invalidate(tag)
                assert (ra is None) == (rb is None)
            assert (new.hits, new.misses) == (ref.hits, ref.misses)
            assert len(new) == sum(len(s) for s in ref._sets)


def reference_compressed_remap(fmt, data: bytearray, slot: int):
    """The seed's whole-block-integer remap; returns the RemapResult tuple
    image (old/new counters and the final block bytes)."""
    value = int.from_bytes(bytes(data), "little")
    gc = value & ((1 << fmt.alpha_bits) - 1)
    ic_shift = fmt.alpha_bits + slot * fmt.beta_bits
    ic = (value >> ic_shift) & fmt._ic_mask
    old_counter = (gc << fmt.beta_bits) | ic
    if ic < fmt._ic_mask:
        new_value = value + (1 << ic_shift)
        new_counter = old_counter + 1
    else:
        new_value = gc + 1
        new_counter = (gc + 1) << fmt.beta_bits
    return old_counter, new_counter, new_value.to_bytes(fmt.block_bytes, "little")


class TestCompressedRemapEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(
        payload=st.binary(min_size=64, max_size=64),
        slot=st.integers(min_value=0, max_value=31),
    )
    def test_windowed_update_matches_whole_block(self, payload, slot):
        prf = Prf(KEY)
        fmt = CompressedPosMapFormat(64, 20, prf)
        data = bytearray(payload)
        expect_old, expect_new, expect_bytes = reference_compressed_remap(
            fmt, bytearray(payload), slot
        )
        result = fmt.remap(data, slot, child_addr=slot, rng=DeterministicRng(0))
        assert result.old_counter == expect_old
        assert result.new_counter == expect_new
        assert bytes(data) == expect_bytes

    def test_rollover_still_group_remaps(self):
        prf = Prf(KEY)
        fmt = CompressedPosMapFormat(64, 20, prf)
        data = bytearray(fmt.initial_block())
        # Saturate slot 3's IC, then remap once more to trigger rollover.
        for _ in range(fmt._ic_mask):
            fmt.remap(data, 3, child_addr=3, rng=DeterministicRng(0))
        result = fmt.remap(data, 3, child_addr=3, rng=DeterministicRng(0))
        assert result.group_remap_slots  # every sibling relocated
        assert fmt.group_counter(bytes(data)) == 1
        assert fmt.individual_counter(bytes(data), 3) == 0


# -- 2/3. configuration- and digest-level equivalence -----------------------------


ALL_SCHEMES = ["R_X8", "P_X16", "PC_X32", "PI_X8", "PIC_X32"]


class TestReplayEquivalence:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_fast_tier_bitwise_identical(self, scheme, fast_tier):
        """Golden digests for the fast tier, on the kernels: the
        SimResult, its digest and the full end-of-replay tree state."""
        expected, reference = replay_reference(scheme)
        got, fast = replay_fast(scheme)
        assert expected == got
        assert result_digest(expected) == result_digest(got)
        assert frontend_stashes(reference) == frontend_stashes(fast)
        assert frontend_digests(reference) == frontend_digests(fast)

    @pytest.mark.skipif(
        load_native_core() is None, reason=unavailable_reason()
    )
    def test_columnar_spec_string_build(self):
        """The spec mini-language selects the columnar pair end to end."""
        from repro.backend.columnar import ColumnarPathOramBackend
        from repro.spec import SchemeSpec
        from repro.storage.columnar import ColumnarTreeStorage

        frontend = SchemeSpec.from_string(
            "PC_X32:storage=columnar"
        ).with_(num_blocks=2**10).build(rng=DeterministicRng(7))
        assert isinstance(frontend.backend, ColumnarPathOramBackend)
        assert isinstance(frontend.backend.storage, ColumnarTreeStorage)

    @pytest.mark.parametrize("scheme", ["PI_X8", "PIC_X32"])
    def test_replayed_leaves_follow_the_seed_formula(self, scheme, fast_tier):
        """Both tiers end a PMMAC replay holding, in every PLB entry, the
        seed's leaf of that entry's tag and counter under the suite's key
        (a PMMAC scheme draws no leaf at random)."""
        for _result, frontend in (replay_reference(scheme), replay_fast(scheme)):
            prf, levels = frontend.crypto.prf, frontend.config.levels
            entries = [way.detach() for way in frontend.plb.entries()]
            assert entries
            for entry in entries:
                assert entry.leaf == reference_leaf_for(
                    prf.key, entry.tagged_addr, entry.counter, levels
                ), entry

    def test_prf_call_count_identical_across_tiers(self, fast_tier):
        """Hash-bandwidth accounting does not depend on the tier: the
        kernel counts a PRF call wherever the interpreted path makes one."""
        (expected, reference), (got, fast) = (
            replay_reference("PIC_X32"), replay_fast("PIC_X32")
        )
        assert expected.prf_calls == got.prf_calls > 0
        assert reference.crypto.prf.call_count == fast.crypto.prf.call_count

# -- 4. declarative specs vs the legacy construction path -------------------------
#
# ``helpers.SCHEME_DIGESTS``: every registered scheme's replay of
# ``micro_trace()``, recorded when the constructors took keyword arguments.


class TestSpecVsLegacyGolden:
    def test_every_paper_scheme_has_a_digest(self):
        """The paper's names are registered first (tests may add more)."""
        from repro.spec import spec_names

        assert spec_names()[: len(SCHEME_DIGESTS)] == tuple(SCHEME_DIGESTS)

    @pytest.mark.parametrize("scheme", list(SCHEME_DIGESTS))
    def test_spec_build_bitwise_identical_to_seed_factories(self, scheme):
        """The constructor given the spec, and ``spec.build()``."""
        from repro.frontend.linear import LinearFrontend
        from repro.frontend.recursive import RecursiveFrontend
        from repro.frontend.unified import PlbFrontend
        from repro.spec import get_spec

        spec = get_spec(scheme).with_(num_blocks=2**12)
        constructor = {
            "plb": PlbFrontend,
            "recursive": RecursiveFrontend,
            "linear": LinearFrontend,
        }[spec.frontend]
        direct = constructor(spec, rng=DeterministicRng(7))
        assert golden_digest(direct, scheme) == SCHEME_DIGESTS[scheme]
        built = spec.build(rng=DeterministicRng(7))
        assert golden_digest(built, scheme) == SCHEME_DIGESTS[scheme]

    @pytest.mark.parametrize("scheme", list(SCHEME_DIGESTS))
    def test_wrapper_factories_route_through_specs_unchanged(self, scheme):
        """``build_frontend`` lands on the same digest."""
        wrapped = build_frontend(scheme, num_blocks=2**12, rng=DeterministicRng(7))
        assert golden_digest(wrapped, scheme) == SCHEME_DIGESTS[scheme]

    def test_phantom_spec_matches_direct_construction(self):
        """The linear (Phantom) spec, built by hand and by the registry."""
        from repro.frontend.linear import LinearFrontend
        from repro.spec import SchemeSpec, get_spec

        by_hand = LinearFrontend(
            SchemeSpec(frontend="linear", num_blocks=2**6, block_bytes=4096),
            rng=DeterministicRng(2),
        )
        spec_built = get_spec("phantom_4kb").with_(num_blocks=2**6).build(
            rng=DeterministicRng(2)
        )
        payload = b"\x5a" * 4096
        for frontend in (by_hand, spec_built):
            frontend.write(5, payload)
        assert by_hand.read(5) == spec_built.read(5) == payload
        assert by_hand.posmap.entries == spec_built.posmap.entries


# -- 5. the trace every replay starts from ----------------------------------------

#: SHA-256 of ``MissTrace.to_bytes()`` at seed 2015, 500 misses.
TRACE_DIGESTS = {
    "astar": "5c5e5610611a59cea85a4f4b807b7e89a902c09378b0e5d4581c2ae92c8cfafa",
    "bzip2": "ce66af39e41f110d131ea009189953f112a4816c5cddd2ed966466b09156881a",
    "gcc": "bc4364fbf8a124c7848de6e81b32a536ab6c17b7758b0d2e7dc814c4f4c1c51e",
    "gob": "fef63d80c98c2acabef124ab8495d295ba57bee949c0b724aa2792d5d0d38d08",
    "h264": "847970e9a763573bbdf1dfbb590ccafa15323a7fb438def70d99ef6a91f9c868",
    "hmmer": "26fa034879c2370ed27bfe687562b6101cbb25393a86f19276fb483f5e9cc7a8",
    "libq": "34d23ef2a85ce4d339f07c61ab0efb4db79d9e05abe25e1260b974a21878d6bf",
    "mcf": "621fc071f3b2b214930ceb158a3ab7e6ed3e19733ff1c2417de04cb56438887e",
    "omnet": "2a7bf292a3db58d4cd94c193bbf678748cd3b37e5feeecc85790309347322fe8",
    "perl": "96ff749ffad69d950dc0dbf3c885048304663b6d01960310ada310ea31a8c432",
    "sjeng": "256f52add49bcac228c10ee08b7919fa5fe0b5c9cbb5e91f8e3c839cb6f88cd6",
}
#: Interpreted, these spend seconds warming a working set of 6 MiB or more.
_SLOW_INTERPRETED = {"astar", "bzip2", "libq", "mcf", "omnet", "sjeng"}


@pytest.mark.parametrize(
    "bench",
    [
        pytest.param(
            name, marks=[pytest.mark.slow] if name in _SLOW_INTERPRETED else []
        )
        for name in TRACE_DIGESTS
    ],
)
def test_trace_image_matches_golden(bench):
    runner = SimulationRunner(
        misses_per_benchmark=500, seed=2015, cache_dir=None, result_cache_dir=None
    )
    image = runner.trace(bench).to_bytes()
    assert hashlib.sha256(image).hexdigest() == TRACE_DIGESTS[bench]
