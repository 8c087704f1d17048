"""§5.4 sub-block frontend: splitting, shared counters, relocation."""

import pytest

from repro.backend.ops import Op
from repro.errors import ConfigurationError
from repro.frontend.subblock import SubBlockFrontend
from repro.utils.rng import DeterministicRng

import lockstep


def make(num_blocks=2**8, data_block_bytes=256, posmap_block_bytes=64,
         beta_bits=14, onchip_entries=2**3):
    return SubBlockFrontend(
        num_blocks=num_blocks,
        data_block_bytes=data_block_bytes,
        posmap_block_bytes=posmap_block_bytes,
        beta_bits=beta_bits,
        onchip_entries=onchip_entries,
        rng=DeterministicRng(44),
    )


class TestStructure:
    def test_sub_block_count(self):
        assert make(data_block_bytes=512, posmap_block_bytes=64).sub_blocks == 8

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigurationError):
            make(data_block_bytes=200, posmap_block_bytes=64)

    def test_tree_stores_small_blocks(self):
        frontend = make(data_block_bytes=512, posmap_block_bytes=64)
        assert frontend.config.block_bytes == 64

    def test_tree_sized_for_all_sub_blocks(self):
        frontend = make(num_blocks=2**8, data_block_bytes=256, posmap_block_bytes=64)
        assert frontend.config.num_blocks >= 2**8 * 4


class TestFunctional:
    def test_write_read_roundtrip(self):
        frontend = make()
        payload = bytes(range(256))
        frontend.write(17, payload)
        assert frontend.read(17) == payload

    def test_fresh_reads_zero(self):
        frontend = make()
        assert frontend.read(200) == bytes(256)

    def test_sub_blocks_reassembled_in_order(self):
        frontend = make(data_block_bytes=256, posmap_block_bytes=64)
        payload = b"".join(bytes([k]) * 64 for k in range(4))
        frontend.write(3, payload)
        got = frontend.read(3)
        for k in range(4):
            assert got[k * 64 : (k + 1) * 64] == bytes([k]) * 64

    def test_shadow_consistency(self):
        frontend = make()
        rng = DeterministicRng(4)
        shadow = {}
        for step in range(120):
            addr = rng.randrange(2**8)
            if rng.random() < 0.5:
                data = bytes([step % 256]) * 256
                frontend.write(addr, data)
                shadow[addr] = data
            else:
                assert frontend.read(addr) == shadow.get(addr, bytes(256))

    def test_partial_write_rejected(self):
        with pytest.raises(ValueError):
            make().write(0, b"short")

    def test_a_payload_bytes_refuses_moves_nothing(self):
        """A full-length ``str`` WRITE raises before the PosMap walk or
        any sub-block access: no counter, tree or RNG draw moves."""
        frontend = make()
        payload = bytes(range(256))
        frontend.write(5, payload)
        before = lockstep.state(frontend)
        with pytest.raises(TypeError, match="string argument without an encoding"):
            frontend.write(5, "x" * 256)
        assert lockstep.state(frontend) == before
        assert frontend.read(5) == payload

    def test_stash_bounded(self):
        frontend = make()
        rng = DeterministicRng(5)
        for _ in range(300):
            frontend.read(rng.randrange(2**8))
        assert frontend.backend.stash.occupancy_stats.max <= 40


class TestAccessCost:
    def test_access_count_is_h_plus_subblocks(self):
        """§5.4: H Backend accesses for PosMap + ceil(B/Bp) for data."""
        frontend = make(data_block_bytes=256, posmap_block_bytes=64)
        result = frontend.access(9, Op.READ)
        assert result.tree_accesses == (frontend.num_levels - 1) + 4
        assert result.posmap_tree_accesses == frontend.num_levels - 1

    def test_sub_blocks_share_one_counter_lookup(self):
        """All sub-blocks move under a single counter transition: reading
        twice must keep data intact across full remaps of every piece."""
        frontend = make()
        payload = bytes(range(256))
        frontend.write(5, payload)
        for _ in range(5):
            assert frontend.read(5) == payload


class TestGroupRemapWithSubBlocks:
    def test_rollover_relocates_all_sibling_pieces(self):
        frontend = make(beta_bits=3)
        payloads = {j: bytes([j + 1]) * 256 for j in range(4)}
        for j, payload in payloads.items():
            frontend.write(j, payload)
        for _ in range(2**3 + 2):  # roll the shared IC of block 0
            frontend.read(0)
        assert frontend.stats.group_remaps >= 1
        for j, payload in payloads.items():
            assert frontend.read(j) == payload

    def test_relocations_count_sub_blocks(self):
        frontend = make(beta_bits=3)
        frontend.read(0)
        before = frontend.stats.group_relocations
        for _ in range(2**3 + 1):
            frontend.read(0)
        moved = frontend.stats.group_relocations - before
        # Each touched sibling logical block relocates all its pieces.
        assert moved % frontend.sub_blocks == 0
        assert moved > 0
