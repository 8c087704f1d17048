"""Unit tests for repro.utils.bitops."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitops import (
    clear_bit,
    common_prefix_len,
    extract_bits,
    is_power_of_two,
    log2_exact,
    next_pow2,
    reverse_bits,
    set_bit,
    bit_is_set,
)


class TestNextPow2:
    def test_matches_the_definition(self):
        """The smallest power of two >= n, and 1 for n <= 1."""
        for n in range(0, 4097):
            want = 1
            while want < n:
                want *= 2
            assert next_pow2(n) == want, n

    def test_small_and_negative_inputs(self):
        assert [next_pow2(n) for n in (-3, 0, 1, 2, 3)] == [1, 1, 1, 2, 4]


class TestPowerOfTwo:
    def test_powers_are_detected(self):
        for k in range(20):
            assert is_power_of_two(1 << k)

    def test_non_powers_rejected(self):
        for x in (0, 3, 5, 6, 7, 9, 12, 100, -2, -8):
            assert not is_power_of_two(x)

    def test_log2_exact_matches(self):
        for k in range(20):
            assert log2_exact(1 << k) == k

    def test_log2_exact_rejects_non_powers(self):
        with pytest.raises(ValueError):
            log2_exact(12)

    def test_log2_exact_rejects_zero(self):
        with pytest.raises(ValueError):
            log2_exact(0)


class TestBitAccess:
    def test_test_bit(self):
        assert bit_is_set(0b1010, 1)
        assert not bit_is_set(0b1010, 0)
        assert bit_is_set(0b1010, 3)

    def test_set_bit(self):
        assert set_bit(0, 3) == 8
        assert set_bit(8, 3) == 8

    def test_clear_bit(self):
        assert clear_bit(0b1111, 2) == 0b1011
        assert clear_bit(0, 5) == 0

    def test_extract_bits(self):
        assert extract_bits(0b110110, 1, 3) == 0b011
        assert extract_bits(0xFF00, 8, 8) == 0xFF
        assert extract_bits(0xFF00, 0, 8) == 0

    def test_extract_bits_rejects_negative(self):
        with pytest.raises(ValueError):
            extract_bits(5, -1, 2)

    def test_reverse_bits(self):
        assert reverse_bits(0b001, 3) == 0b100
        assert reverse_bits(0b110, 3) == 0b011
        assert reverse_bits(0, 8) == 0

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_reverse_is_involution(self, x):
        assert reverse_bits(reverse_bits(x, 16), 16) == x


class TestCommonPrefix:
    def test_identical_leaves_share_full_prefix(self):
        assert common_prefix_len(0b1010, 0b1010, 4) == 4

    def test_differing_msb_shares_nothing(self):
        assert common_prefix_len(0b1000, 0b0000, 4) == 0

    def test_partial_prefix(self):
        assert common_prefix_len(0b1010, 0b1011, 4) == 3
        assert common_prefix_len(0b1010, 0b1000, 4) == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            common_prefix_len(16, 0, 4)

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_symmetric(self, a, b):
        assert common_prefix_len(a, b, 8) == common_prefix_len(b, a, 8)

    @given(st.integers(min_value=0, max_value=255))
    def test_self_prefix_is_width(self, a):
        assert common_prefix_len(a, a, 8) == 8

    @given(
        st.integers(min_value=0, max_value=2**10 - 1),
        st.integers(min_value=0, max_value=2**10 - 1),
    )
    def test_prefix_semantics(self, a, b):
        """A prefix of length p means the top p bits agree and bit p+1 differs."""
        p = common_prefix_len(a, b, 10)
        if p < 10:
            assert (a >> (10 - p)) == (b >> (10 - p))
            assert (a >> (10 - p - 1)) != (b >> (10 - p - 1))
