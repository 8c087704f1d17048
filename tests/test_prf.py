"""PRF behaviour: determinism, distribution, domain separation, and no
state beyond the key."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prf import Prf

from helpers import reference_leaf_for


class TestModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Prf(b"k" * 16, mode="rot13")

    def test_aes_mode_needs_16_byte_key(self):
        with pytest.raises(ValueError):
            Prf(b"short", mode=Prf.MODE_AES)

    def test_fast_mode_accepts_any_key(self):
        assert Prf(b"k", mode=Prf.MODE_FAST).eval_bytes(b"x")


@pytest.mark.parametrize("mode", [Prf.MODE_FAST, Prf.MODE_AES])
class TestBothModes:
    def _prf(self, mode):
        return Prf(b"0123456789abcdef", mode=mode)

    def test_deterministic(self, mode):
        a, b = self._prf(mode), self._prf(mode)
        assert a.eval_bytes(b"hello") == b.eval_bytes(b"hello")

    def test_distinct_inputs_distinct_outputs(self, mode):
        prf = self._prf(mode)
        assert prf.eval_bytes(b"a") != prf.eval_bytes(b"b")

    def test_output_is_16_bytes(self, mode):
        assert len(self._prf(mode).eval_bytes(b"anything")) == 16

    def test_long_input_supported(self, mode):
        prf = self._prf(mode)
        assert prf.eval_bytes(b"x" * 100) != prf.eval_bytes(b"x" * 101)

    def test_eval_int_range(self, mode):
        prf = self._prf(mode)
        for i in range(64):
            assert 0 <= prf.eval_int(bytes([i]), 10) < 1024

    def test_eval_int_zero_bits(self, mode):
        assert self._prf(mode).eval_int(b"x", 0) == 0

    def test_leaf_for_varies_with_count(self, mode):
        prf = self._prf(mode)
        leaves = {prf.leaf_for(5, c, 16) for c in range(40)}
        assert len(leaves) > 30  # collisions possible but rare

    def test_leaf_for_varies_with_address(self, mode):
        prf = self._prf(mode)
        leaves = {prf.leaf_for(a, 0, 16) for a in range(40)}
        assert len(leaves) > 30

    def test_subblock_index_separates(self, mode):
        prf = self._prf(mode)
        assert prf.leaf_for(1, 1, 16, subblock=0) != prf.leaf_for(1, 1, 16, subblock=1)

    def test_call_count(self, mode):
        prf = self._prf(mode)
        prf.eval_bytes(b"a")
        prf.eval_bytes(b"b")
        assert prf.call_count == 2


class TestDistribution:
    def test_leaves_roughly_uniform(self):
        """PRF-derived leaves drive ORAM privacy; check uniformity."""
        prf = Prf(b"distribution-key")
        counts = [0] * 16
        for c in range(8000):
            counts[prf.leaf_for(1234, c, 4)] += 1
        assert min(counts) > 350 and max(counts) < 650

    def test_keys_separate(self):
        a = Prf(b"key-a")
        b = Prf(b"key-b")
        assert a.eval_bytes(b"same input") != b.eval_bytes(b"same input")

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=2**30),
        st.integers(min_value=0, max_value=2**30),
    )
    def test_no_systematic_collisions(self, a1, a2, c1, c2):
        """Distinct (addr, count) pairs map independently (prefix-free input)."""
        prf = Prf(b"collision-key")
        if (a1, c1) != (a2, c2):
            # 64-bit truncation: collisions are negligible, not impossible;
            # equality here would indicate a structural flaw.
            assert prf.eval_int(
                a1.to_bytes(8, "little") + c1.to_bytes(12, "little"), 64
            ) != prf.eval_int(a2.to_bytes(8, "little") + c2.to_bytes(12, "little"), 64)


@pytest.mark.parametrize("mode", [Prf.MODE_FAST, Prf.MODE_AES])
class TestPeeksHaveNoSideEffects:
    """A diagnostic read of a leaf is no PRF call: ``call_count`` is the
    hash-bandwidth figure behind ``SimResult.prf_calls``, so
    ``OnChipPosMap.peek_leaf`` and both counter formats' ``leaf_of``
    derive through ``Prf.peek_leaf``, which does not move it."""

    KEY = b"0123456789abcdef"

    def test_prf_peek_leaf_is_leaf_for_without_the_bookkeeping(self, mode):
        peeked, counted = Prf(self.KEY, mode), Prf(self.KEY, mode)
        for address, count, levels, subblock in (
            (3, 0, 10, 0), (3, 1, 10, 0), (2**40, 2**70, 24, 5), (9, 4, 0, 0),
        ):
            assert peeked.peek_leaf(address, count, levels, subblock) == (
                counted.leaf_for(address, count, levels, subblock)
            )
        assert peeked.call_count == 0
        assert counted.call_count == 3

    def test_onchip_peek_leaf(self, mode):
        from repro.frontend.posmap import OnChipPosMap

        prf = Prf(self.KEY, mode)
        posmap = OnChipPosMap(
            entries=8, levels=10, mode=OnChipPosMap.MODE_COUNTER, prf=prf
        )
        posmap.lookup_and_remap(3, 3)
        _, newest, _ = posmap.lookup_and_remap(4, 4)
        assert prf.call_count == 4
        assert posmap.peek_leaf(3, 3) == Prf(self.KEY, mode).leaf_for(3, 1, 10)
        assert posmap.peek_leaf(4, 4) == newest
        assert prf.call_count == 4

    @pytest.mark.parametrize("kind", ["flat", "compressed"])
    def test_format_leaf_of(self, mode, kind):
        from repro.frontend.formats import (
            CompressedPosMapFormat, FlatCounterPosMapFormat,
        )

        prf = Prf(self.KEY, mode)
        fmt = (
            FlatCounterPosMapFormat(64, 12, prf) if kind == "flat"
            else CompressedPosMapFormat(64, 12, prf)
        )
        data = bytearray(fmt.initial_block())
        fmt.remap(data, 1, 101, None)
        remapped = fmt.remap(data, 2, 102, None)
        assert prf.call_count == 4
        assert fmt.leaf_of(bytes(data), 2, 102) == remapped.new_leaf
        assert fmt.leaf_of(bytes(data), 1, 101) == (
            Prf(self.KEY, mode).leaf_for(101, fmt.counter_of(bytes(data), 1), 12)
        )
        assert prf.call_count == 4


LEAF_KEYS = st.tuples(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**96 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=60),
)


class TestNoHiddenState:
    """A leaf is a function of the key and its arguments alone: no call
    leaves anything behind that a later one reads, so every call is the
    formula and every call counts. (The fast tier's kernel is held to the
    same formula in ``test_native_frontend.py``.)"""

    KEY = b"stateless-prf-key"

    @settings(max_examples=200, deadline=None)
    @given(leaf_key=LEAF_KEYS)
    def test_leaf_for_is_one_keyed_blake2b(self, leaf_key):
        address, count, subblock, levels = leaf_key
        prf = Prf(self.KEY)
        expected = reference_leaf_for(self.KEY, address, count, levels, subblock)
        assert prf.leaf_for(address, count, levels, subblock) == expected
        assert prf.peek_leaf(address, count, levels, subblock) == expected
        assert prf.call_count == 1
        assert prf.cache_hits == 0

    @settings(max_examples=100, deadline=None)
    @given(
        leaf_keys=st.lists(LEAF_KEYS, min_size=1, max_size=12),
        order=st.randoms(use_true_random=False),
    )
    def test_repeated_reordered_and_interleaved_calls_agree(
        self, leaf_keys, order
    ):
        """The same keys asked for again, in another order, and
        alternating between two PRFs and with ``eval_bytes``: the same
        leaves, and ``call_count`` moves by one per call."""
        first, second = Prf(self.KEY), Prf(self.KEY)
        expected = {
            key: reference_leaf_for(self.KEY, key[0], key[1], key[3], key[2])
            for key in leaf_keys
        }
        calls = 0
        shuffled = list(leaf_keys) * 2
        order.shuffle(shuffled)
        for rounds, keys in enumerate((leaf_keys, leaf_keys, shuffled)):
            for index, (address, count, subblock, levels) in enumerate(keys):
                prf = second if (rounds + index) % 3 == 2 else first
                leaf = prf.leaf_for(address, count, levels, subblock)
                assert leaf == expected[address, count, subblock, levels]
                calls += 1
                if index % 4 == 1:
                    first.eval_bytes(bytes([index]))
                    calls += 1
        assert first.call_count + second.call_count == calls
        assert first.cache_hits == second.cache_hits == 0

    @settings(max_examples=60, deadline=None)
    @given(
        leaf_keys=st.lists(LEAF_KEYS, min_size=1, max_size=8),
        order=st.randoms(use_true_random=False),
    )
    def test_aes_mode_keeps_no_state_either(self, leaf_keys, order):
        """The AES primitive has no BLAKE2b formula to hold it to, so
        each call is held to a fresh PRF's answer instead: asked again,
        in another order, on a PRF that has answered others before."""
        key = b"0123456789abcdef"
        worn = Prf(key, Prf.MODE_AES)
        shuffled = list(leaf_keys) * 2
        order.shuffle(shuffled)
        for address, count, subblock, levels in list(leaf_keys) + shuffled:
            fresh = Prf(key, Prf.MODE_AES)
            assert worn.leaf_for(address, count, levels, subblock) == (
                fresh.peek_leaf(address, count, levels, subblock)
            )
        assert worn.call_count == 3 * len(leaf_keys)

    @pytest.mark.parametrize(
        "address, count, subblock, levels",
        [
            (0, 0, 0, 1),
            (2**64 - 1, 2**96 - 1, 2**32 - 1, 64),
            (2**64 - 1, 0, 2**32 - 1, 60),
            (0, 2**64, 0, 60),
            (0, 2**64 - 1, 0, 60),
        ],
    )
    def test_the_edges_of_every_field(self, address, count, subblock, levels):
        """Each field at 0 and at its largest value, and the count either
        side of the word it is split at: the formula, bit for bit."""
        prf = Prf(self.KEY)
        assert prf.leaf_for(address, count, levels, subblock) == (
            reference_leaf_for(self.KEY, address, count, levels, subblock)
        )


@pytest.mark.parametrize("mode", [Prf.MODE_FAST, Prf.MODE_AES])
class TestArgumentDomain:
    """The message is ``address (8) || count (12) || subblock (4)`` bytes:
    a value that does not fit its field is refused, never wrapped onto a
    neighbour's leaf, and a tree of one bucket derives nothing."""

    KEY = b"0123456789abcdef"

    @pytest.mark.parametrize("levels", [0, -3])
    def test_degenerate_levels_are_no_call(self, mode, levels):
        prf = Prf(self.KEY, mode)
        assert prf.leaf_for(7, 9, levels) == prf.peek_leaf(7, 9, levels) == 0
        assert prf.call_count == 0

    @pytest.mark.parametrize(
        "address, count, subblock",
        [
            (-1, 0, 0),
            (2**64, 0, 0),
            (0, -1, 0),
            (0, 2**96, 0),
            (0, 0, -1),
            (0, 0, 2**32),
        ],
        ids=[
            "negative-address", "address-past-64-bits", "negative-count",
            "count-past-96-bits", "negative-subblock", "subblock-past-32-bits",
        ],
    )
    def test_an_out_of_range_field_raises_instead_of_aliasing(
        self, mode, address, count, subblock
    ):
        """A failed derivation leaves nothing behind either: the next
        in-range call on the same PRF is a fresh PRF's answer."""
        import struct

        prf = Prf(self.KEY, mode)
        with pytest.raises(struct.error):
            prf.peek_leaf(address, count, 20, subblock)
        with pytest.raises(struct.error):
            prf.leaf_for(address, count, 20, subblock)
        assert prf.leaf_for(1, 2, 20, 3) == Prf(self.KEY, mode).peek_leaf(1, 2, 20, 3)
