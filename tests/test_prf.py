"""PRF behaviour: determinism, distribution, domain separation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prf import Prf


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
    hash-bandwidth figure behind ``SimResult.prf_calls`` and the LRU's
    order decides later ``prf_cache_hits``, so ``OnChipPosMap.peek_leaf``
    and both counter formats' ``leaf_of`` derive through
    ``Prf.peek_leaf``, which moves neither. At the parent one
    ``peek_leaf(3, 3)`` took ``call_count`` 4 -> 5 and replaced
    ``(4, 0, 10, 0)`` in a two-entry cache with ``(3, 1, 10, 0)``."""

    KEY = b"0123456789abcdef"

    def image(self, prf):
        return prf.call_count, prf.cache_hits, list(prf._leaf_cache.items())

    def test_prf_peek_leaf_is_leaf_for_without_the_bookkeeping(self, mode):
        peeked, counted = Prf(self.KEY, mode), Prf(self.KEY, mode)
        for address, count, levels, subblock in (
            (3, 0, 10, 0), (3, 1, 10, 0), (2**40, 2**70, 24, 5), (9, 4, 0, 0),
        ):
            assert peeked.peek_leaf(address, count, levels, subblock) == (
                counted.leaf_for(address, count, levels, subblock)
            )
        assert self.image(peeked) == (0, 0, [])
        assert counted.call_count == 3

    def test_onchip_peek_leaf(self, mode):
        from repro.frontend.posmap import OnChipPosMap

        prf = Prf(self.KEY, mode, leaf_cache_entries=2)
        posmap = OnChipPosMap(
            entries=8, levels=10, mode=OnChipPosMap.MODE_COUNTER, prf=prf
        )
        posmap.lookup_and_remap(3, 3)
        _, newest, _ = posmap.lookup_and_remap(4, 4)
        before = self.image(prf)
        assert before[0] == 4 and [key for key, _ in before[2]] == [
            (4, 0, 10, 0), (4, 1, 10, 0)
        ]
        assert posmap.peek_leaf(3, 3) == Prf(self.KEY, mode).leaf_for(3, 1, 10)
        assert posmap.peek_leaf(4, 4) == newest
        assert self.image(prf) == before

    @pytest.mark.parametrize("kind", ["flat", "compressed"])
    def test_format_leaf_of(self, mode, kind):
        from repro.frontend.formats import (
            CompressedPosMapFormat, FlatCounterPosMapFormat,
        )

        prf = Prf(self.KEY, mode, leaf_cache_entries=2)
        fmt = (
            FlatCounterPosMapFormat(64, 12, prf) if kind == "flat"
            else CompressedPosMapFormat(64, 12, prf)
        )
        data = bytearray(fmt.initial_block())
        fmt.remap(data, 1, 101, None)
        remapped = fmt.remap(data, 2, 102, None)
        before = self.image(prf)
        assert before[0] == 4
        assert fmt.leaf_of(bytes(data), 2, 102) == remapped.new_leaf
        assert fmt.leaf_of(bytes(data), 1, 101) == (
            Prf(self.KEY, mode).leaf_for(101, fmt.counter_of(bytes(data), 1), 12)
        )
        assert self.image(prf) == before
