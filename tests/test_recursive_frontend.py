"""Recursive ORAM baseline (R_X8-style, separate trees)."""

import pytest

from repro.adversary.observer import TraceObserver
from repro.backend.ops import Op
from repro.errors import ConfigurationError
from repro.frontend.recursive import RecursiveFrontend
from repro.spec import SchemeSpec
from repro.utils.rng import DeterministicRng


def make(num_blocks=2**10, onchip_entries=2**4, **kwargs):
    spec = SchemeSpec(
        frontend="recursive",
        num_blocks=num_blocks,
        onchip_entries=onchip_entries,
        storage="object",
        **kwargs,
    )
    return RecursiveFrontend(spec, rng=DeterministicRng(11))


class TestStructure:
    def test_level_count_follows_budget(self):
        # N=2^10, X=8, p=2^4: 10 -> 7 -> 4 -> 1 entries: H = 3.
        frontend = make()
        assert frontend.num_levels == 3
        assert len(frontend.backends) == 3

    def test_posmap_trees_use_posmap_block_size(self):
        frontend = make(posmap_block_bytes=32)
        assert frontend.configs[0].block_bytes == 64
        for cfg in frontend.configs[1:]:
            assert cfg.block_bytes == 32

    def test_x8_fanout(self):
        frontend = make(posmap_block_bytes=32, leaf_bytes=4)
        assert frontend.space.fanout == 8

    def test_tiny_posmap_block_rejected(self):
        with pytest.raises(ConfigurationError):
            make(posmap_block_bytes=4)

    def test_onchip_fits_budget(self):
        frontend = make(onchip_entries=2**4)
        assert frontend.posmap.entries <= 2**4


class TestFunctional:
    def test_write_read(self):
        frontend = make()
        payload = b"\x5A" * 64
        frontend.write(123, payload)
        assert frontend.read(123) == payload

    def test_fresh_reads_zero(self):
        frontend = make()
        assert frontend.read(999) == bytes(64)

    def test_shadow_consistency(self):
        frontend = make()
        rng = DeterministicRng(23)
        shadow = {}
        for step in range(400):
            addr = rng.randrange(2**10)
            if rng.random() < 0.5:
                data = bytes([step % 256]) * 64
                frontend.write(addr, data)
                shadow[addr] = data
            else:
                assert frontend.read(addr) == shadow.get(addr, bytes(64))

    def test_neighbouring_addresses_share_posmap_block(self):
        """Blocks {a, a+1, ...} within a group hit the same PosMap block."""
        frontend = make()
        frontend.write(64, b"\x01" * 64)
        frontend.write(65, b"\x02" * 64)
        assert frontend.read(64) == b"\x01" * 64
        assert frontend.read(65) == b"\x02" * 64

    def test_rejects_backend_ops(self):
        with pytest.raises(ConfigurationError):
            make().access(0, Op.APPEND)

    def test_rejects_partial_write(self):
        with pytest.raises(ValueError):
            make().write(0, b"x")


class TestAccounting:
    def test_every_access_walks_all_levels(self):
        frontend = make()
        result = frontend.access(5, Op.READ)
        assert result.tree_accesses == frontend.num_levels
        assert result.posmap_tree_accesses == frontend.num_levels - 1

    def test_posmap_bandwidth_dominates_data(self):
        """The §3.2.1 problem: PosMap ORAMs eat ~half the bandwidth."""
        frontend = make()
        rng = DeterministicRng(2)
        for _ in range(50):
            frontend.read(rng.randrange(2**10))
        assert frontend.posmap_bytes_moved > 0.5 * frontend.data_bytes_moved

    def test_observer_sees_each_tree(self):
        observer = TraceObserver()
        frontend = RecursiveFrontend(
            SchemeSpec(
                frontend="recursive",
                num_blocks=2**10,
                onchip_entries=2**4,
                storage="object",
            ),
            rng=DeterministicRng(1),
            observer=observer,
        )
        frontend.read(7)
        trees = set(e.tree_id for e in observer.events)
        assert trees == {0, 1, 2}

    def test_stats_accumulate(self):
        frontend = make()
        for addr in range(10):
            frontend.read(addr)
        assert frontend.stats.accesses == 10
        assert frontend.stats.data_tree_accesses == 10
        assert frontend.stats.posmap_tree_accesses == 20
