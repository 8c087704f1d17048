"""Address generation for the recursive PosMap hierarchy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.frontend.addrgen import AddressSpace, levels_needed


class TestAddressSpace:
    def test_chain_matches_paper_example(self):
        """§3.2's example: X=4, a0 = 1001001b = 73."""
        space = AddressSpace(num_blocks=128, fanout=4, num_levels=3)
        assert space.chain(73) == [73, 18, 4]

    def test_chain_floors(self):
        space = AddressSpace(num_blocks=1000, fanout=8, num_levels=3)
        assert space.chain(999) == [999, 124, 15]

    def test_level_blocks_ceil(self):
        space = AddressSpace(num_blocks=1000, fanout=8, num_levels=4)
        assert space.level_blocks(0) == 1000
        assert space.level_blocks(1) == 125
        assert space.level_blocks(2) == 16
        assert space.level_blocks(3) == 2

    def test_total_blocks(self):
        space = AddressSpace(num_blocks=64, fanout=8, num_levels=3)
        assert space.total_blocks() == 64 + 8 + 1

    def test_unified_tree_adds_at_most_one_level(self):
        """§4.2.1: total blocks < 2N for X >= 2."""
        for fanout in (2, 8, 16, 32):
            space = AddressSpace(num_blocks=2**16, fanout=fanout, num_levels=6)
            assert space.total_blocks() < 2 * 2**16

    def test_child_slot(self):
        space = AddressSpace(num_blocks=128, fanout=4, num_levels=3)
        assert space.child_slot(73) == 1
        assert space.child_slot(18) == 2

    def test_out_of_range_rejected(self):
        space = AddressSpace(num_blocks=16, fanout=4, num_levels=2)
        with pytest.raises(ValueError):
            space.chain(16)

    def test_invalid_fanout_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace(16, 1, 2)

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace(16, 4, 0)


class TestTagging:
    def test_tag_roundtrip(self):
        for level in (0, 1, 7, 15):
            for index in (0, 1, 12345, 2**40):
                assert AddressSpace.untag(AddressSpace.tag(level, index)) == (
                    level,
                    index,
                )

    def test_tags_disambiguate_levels(self):
        """§4.1.1: the same index at different levels must not collide."""
        assert AddressSpace.tag(1, 5) != AddressSpace.tag(2, 5)

    def test_level_zero_tag_is_identity(self):
        assert AddressSpace.tag(0, 12345) == 12345

    def test_oversized_index_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace.tag(1, 1 << 48)

    @given(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=2**48 - 1),
    )
    def test_tag_bijective(self, level, index):
        assert AddressSpace.untag(AddressSpace.tag(level, index)) == (level, index)


class TestLevelsNeeded:
    def test_fits_onchip_directly(self):
        assert levels_needed(1024, 8, 1024) == 1

    def test_paper_formula(self):
        """H = log(N/p)/log(X) + 1 for exact powers (§3.2)."""
        assert levels_needed(2**26, 8, 2**11) == 6  # (26-11)/3 = 5 PosMap levels
        assert levels_needed(2**20, 16, 2**8) == 4  # (20-8)/4 = 3 PosMap levels

    def test_rounds_up(self):
        assert levels_needed(2**20, 8, 2**10) == 5  # 10/3 -> 4 PosMap levels

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            levels_needed(16, 4, 0)

    def test_fanout_below_two_rejected_when_recursion_is_needed(self):
        """X = 1 never shrinks a level: an error, not an endless loop."""
        with pytest.raises(ValueError, match="never shrinks"):
            levels_needed(2**16, 1, 2**11)
        assert levels_needed(2**11, 1, 2**11) == 1

    @given(
        st.integers(min_value=1, max_value=2**24),
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=1, max_value=2**12),
    )
    def test_result_satisfies_budget(self, n, x, p):
        h = levels_needed(n, x, p)
        space = AddressSpace(max(n, 1), x, h)
        assert space.level_blocks(h - 1) <= p
        if h > 1:
            assert space.level_blocks(h - 2) > p
