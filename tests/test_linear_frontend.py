"""Non-recursive (Phantom-style) Frontend."""

import pytest

from repro.backend.ops import Op
from repro.errors import ConfigurationError
from repro.frontend.linear import LinearFrontend
from repro.spec import SchemeSpec
from repro.utils.rng import DeterministicRng


def make(num_blocks=256, seed=1):
    spec = SchemeSpec(frontend="linear", num_blocks=num_blocks, storage="object")
    return LinearFrontend(spec, rng=DeterministicRng(seed))


@pytest.fixture
def frontend(small_config):
    return make(small_config.num_blocks)


class TestFunctional:
    def test_fresh_read_is_zero(self, frontend, small_config):
        assert frontend.read(5) == bytes(small_config.block_bytes)

    def test_write_read(self, frontend, small_config):
        payload = b"\x99" * small_config.block_bytes
        frontend.write(5, payload)
        assert frontend.read(5) == payload

    def test_distinct_addresses_independent(self, frontend, small_config):
        a = b"\x01" * small_config.block_bytes
        b = b"\x02" * small_config.block_bytes
        frontend.write(1, a)
        frontend.write(2, b)
        assert frontend.read(1) == a
        assert frontend.read(2) == b

    def test_shadow_consistency(self, small_config):
        frontend = make(small_config.num_blocks, seed=4)
        rng = DeterministicRng(9)
        shadow = {}
        for step in range(400):
            addr = rng.randrange(small_config.num_blocks)
            if rng.random() < 0.5:
                data = bytes([step % 256]) * small_config.block_bytes
                frontend.write(addr, data)
                shadow[addr] = data
            else:
                expected = shadow.get(addr, bytes(small_config.block_bytes))
                assert frontend.read(addr) == expected

    def test_write_requires_full_block(self, frontend):
        with pytest.raises(ValueError):
            frontend.write(0, b"short")

    def test_backend_ops_rejected(self, frontend):
        with pytest.raises(ConfigurationError):
            frontend.access(0, Op.READRMV)


class TestAccounting:
    def test_one_tree_access_per_request(self, frontend):
        result = frontend.access(3, Op.READ)
        assert result.tree_accesses == 1
        assert result.posmap_tree_accesses == 0

    def test_no_posmap_traffic(self, frontend):
        for addr in range(10):
            frontend.read(addr)
        assert frontend.posmap_bytes_moved == 0
        assert frontend.data_bytes_moved > 0

    def test_onchip_posmap_size_scales_with_n(self):
        """The Phantom scaling problem: N*L bits on-chip (§1.1)."""
        small = make(256, seed=0)
        large = make(4096, seed=0)
        assert large.onchip_posmap_bytes > 8 * small.onchip_posmap_bytes
