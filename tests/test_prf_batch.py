"""Batched PRF leaf derivation: ``leaf_for_many`` vs scalar ``leaf_for``.

The batched spelling must be bit-identical to the equivalent scalar call
sequence — leaves and ``call_count`` — across repeated keys,
empty/singleton batches and both PRF primitives.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prf import Prf

KEY = b"batched-prf-key!"


def scalar_reference(prf: Prf, addrs, counts, levels, subblock=0):
    return [
        prf.leaf_for(addr, count, levels, subblock)
        for addr, count in zip(addrs, counts)
    ]


class TestLeafForMany:
    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=2**70),
            ),
            max_size=50,
        ),
        levels=st.integers(min_value=1, max_value=30),
        subblock=st.integers(min_value=0, max_value=7),
    )
    def test_matches_scalar_sequence(self, pairs, levels, subblock):
        addrs = [a for a, _ in pairs]
        counts = [c for _, c in pairs]
        batched_prf, scalar_prf = Prf(KEY), Prf(KEY)
        batched = batched_prf.leaf_for_many(addrs, counts, levels, subblock)
        scalar = scalar_reference(scalar_prf, addrs, counts, levels, subblock)
        assert batched == scalar
        assert batched_prf.call_count == scalar_prf.call_count

    def test_empty_batch(self):
        prf = Prf(KEY)
        assert prf.leaf_for_many([], [], 20) == []
        assert prf.call_count == 0

    def test_singleton_batch(self):
        batched_prf, scalar_prf = Prf(KEY), Prf(KEY)
        assert batched_prf.leaf_for_many([9], [4], 20) == [
            scalar_prf.leaf_for(9, 4, 20)
        ]
        assert batched_prf.call_count == 1

    def test_degenerate_levels_bypasses_the_counter(self):
        prf = Prf(KEY)
        assert prf.leaf_for_many([1, 2], [3, 4], 0) == [0, 0]
        assert prf.call_count == 0

    def test_mismatched_batch_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            Prf(KEY).leaf_for_many([1, 2], [3], 16)

    def test_aes_mode_matches_scalar(self):
        batched_prf = Prf(b"0123456789abcdef", mode=Prf.MODE_AES)
        scalar_prf = Prf(b"0123456789abcdef", mode=Prf.MODE_AES)
        addrs = [0, 1, 0, 2]
        counts = [0, 7, 0, 9]
        assert batched_prf.leaf_for_many(addrs, counts, 12) == scalar_reference(
            scalar_prf, addrs, counts, 12
        )
        assert batched_prf.call_count == scalar_prf.call_count

    def test_repeated_keys_each_count_a_call(self):
        """A key repeated inside a batch, or asked for again after a
        scalar call, is derived again: the same leaf, one call each."""
        prf = Prf(KEY)
        warm = [prf.leaf_for(1, 0, 16), prf.leaf_for(2, 0, 16)]
        leaves = prf.leaf_for_many([1, 3, 2, 3, 1], [0, 0, 0, 0, 0], 16)
        assert prf.call_count == 7
        assert leaves[0] == leaves[4] == warm[0] and leaves[2] == warm[1]
        assert leaves[1] == leaves[3] == Prf(KEY).peek_leaf(3, 0, 16)

    def test_a_batch_between_scalar_calls_moves_no_leaf(self):
        """Scalar calls before and after a long batch with repeats give
        what they give on a PRF that never saw the batch."""
        seen, unseen = Prf(KEY), Prf(KEY)
        addrs = [1, 2, 3, 4, 1, 2, 5, 3, 1] * 3
        before = seen.leaf_for(4, 0, 16)
        seen.leaf_for_many(addrs, [0] * len(addrs), 16)
        after = seen.leaf_for(4, 0, 16)
        assert before == after == unseen.leaf_for(4, 0, 16)
        assert seen.call_count == len(addrs) + 2
