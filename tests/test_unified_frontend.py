"""PLB + Unified tree Frontend in all format/PMMAC combinations."""

import pytest

from repro.backend.ops import Op
from repro.errors import ConfigurationError, SpecError
from repro.frontend.unified import PlbFrontend
from repro.spec import SchemeSpec
from repro.utils.rng import DeterministicRng

ALL_VARIANTS = [
    ("uncompressed", False),
    ("flat", False),
    ("compressed", False),
    ("uncompressed", True),
    ("flat", True),
    ("compressed", True),
]


def make(posmap_format="uncompressed", pmmac=False, num_blocks=2**10, **kwargs):
    kwargs.setdefault("onchip_entries", 2**4)
    kwargs.setdefault("plb_capacity_bytes", 2 * 1024)
    spec = SchemeSpec(
        num_blocks=num_blocks,
        posmap_format=posmap_format,
        pmmac=pmmac,
        storage="object",
        **kwargs,
    )
    return PlbFrontend(spec, rng=DeterministicRng(31))


class TestStructure:
    def test_fanouts_match_paper(self):
        assert make("uncompressed").format.fanout == 16  # P_X16
        assert make("flat").format.fanout == 8  # PI_X8
        assert make("compressed").format.fanout == 32  # PC_X32

    def test_unified_tree_holds_all_levels(self):
        frontend = make("uncompressed")
        assert frontend.config.num_blocks >= frontend.space.total_blocks()

    def test_adds_at_most_one_level(self):
        """§4.2.1: unified tree has at most one extra level."""
        frontend = make("uncompressed", num_blocks=2**12)
        data_only_levels = 11  # log2(2^12) - 1
        assert frontend.config.levels <= data_only_levels + 1

    def test_pmmac_adds_mac_bytes(self):
        assert make("flat", pmmac=True).config.mac_bytes == 14
        assert make("flat", pmmac=False).config.mac_bytes == 0

    def test_onchip_mode_follows_pmmac(self):
        assert make("compressed", pmmac=True).posmap.mode == "counter"
        assert make("compressed", pmmac=False).posmap.mode == "leaf"

    def test_unknown_format_rejected(self):
        with pytest.raises(SpecError, match="unknown posmap_format"):
            make("zip")


@pytest.mark.parametrize("posmap_format,pmmac", ALL_VARIANTS)
class TestFunctional:
    def test_write_read(self, posmap_format, pmmac):
        frontend = make(posmap_format, pmmac)
        payload = b"\x77" * 64
        frontend.write(321, payload)
        assert frontend.read(321) == payload

    def test_fresh_reads_zero(self, posmap_format, pmmac):
        frontend = make(posmap_format, pmmac)
        assert frontend.read(500) == bytes(64)

    def test_repeated_access_same_block(self, posmap_format, pmmac):
        frontend = make(posmap_format, pmmac)
        payload = b"\x10" * 64
        frontend.write(77, payload)
        for _ in range(20):
            assert frontend.read(77) == payload

    def test_shadow_consistency(self, posmap_format, pmmac):
        frontend = make(posmap_format, pmmac)
        rng = DeterministicRng(101)
        shadow = {}
        for step in range(300):
            addr = rng.randrange(2**10)
            if rng.random() < 0.5:
                data = bytes([(step * 7) % 256]) * 64
                frontend.write(addr, data)
                shadow[addr] = data
            else:
                assert frontend.read(addr) == shadow.get(addr, bytes(64))

    def test_stash_bounded(self, posmap_format, pmmac):
        frontend = make(posmap_format, pmmac)
        rng = DeterministicRng(55)
        for _ in range(800):
            frontend.read(rng.randrange(2**10))
        assert frontend.backend.stash.occupancy_stats.max <= 40


class TestPlbBehaviour:
    def test_sequential_access_hits_plb(self):
        """Unit-stride traffic shares PosMap blocks -> high hit rate."""
        frontend = make("uncompressed", plb_capacity_bytes=4 * 1024)
        for addr in range(256):
            frontend.read(addr)
        assert frontend.stats.plb_hits > 0.8 * frontend.stats.accesses

    def test_hit_skips_posmap_accesses(self):
        frontend = make("uncompressed")
        first = frontend.access(0, Op.READ)
        second = frontend.access(1, Op.READ)  # same PosMap block as 0
        assert second.tree_accesses < first.tree_accesses
        assert second.tree_accesses == 1

    def test_strided_access_misses_plb(self):
        """§4.1.2 program B: stride X never reuses a PosMap block entry...
        it still hits the block itself only 1/X as often."""
        frontend = make("uncompressed", plb_capacity_bytes=1024)
        fanout = frontend.format.fanout
        for i in range(200):
            frontend.read((i * fanout * 8) % 2**10)
        assert frontend.stats.plb_hits < frontend.stats.accesses // 2

    def test_single_level_counts_no_plb_lookups(self):
        """With H=1 no PLB lookup occurs, so neither hits nor misses may
        accumulate — tiny working sets must not inflate Fig-5 hit rates."""
        frontend = make("uncompressed", num_blocks=8, onchip_entries=2**6)
        assert frontend.space_levels == 1
        for addr in range(8):
            frontend.read(addr)
        assert frontend.stats.accesses == 8
        assert frontend.stats.plb_hits == 0
        assert frontend.stats.plb_misses == 0
        assert frontend.plb.hits == 0 and frontend.plb.misses == 0

    def test_multi_level_hit_rate_over_lookups_only(self):
        frontend = make("uncompressed")
        assert frontend.space_levels > 1
        for addr in range(64):
            frontend.read(addr)
        assert (
            frontend.stats.plb_hits + frontend.stats.plb_misses
            == frontend.stats.accesses
        )

    def test_plb_eviction_appends_to_stash(self):
        frontend = make("uncompressed", plb_capacity_bytes=1024)
        rng = DeterministicRng(8)
        for _ in range(300):
            frontend.read(rng.randrange(2**10))
        assert frontend.stats.plb_evictions > 0
        # Evicted blocks must remain reachable (no data loss):
        payload = b"\x3C" * 64
        frontend.write(17, payload)
        for _ in range(200):
            frontend.read(rng.randrange(2**10))
        assert frontend.read(17) == payload

    def test_tree_access_count_vs_recursive(self):
        """The PLB must save PosMap accesses vs always-walk."""
        frontend = make("uncompressed", plb_capacity_bytes=8 * 1024)
        rng = DeterministicRng(13)
        for _ in range(500):
            frontend.read(rng.zipf(2**10, 1.2))
        walk_cost = frontend.stats.accesses * (frontend.space_levels - 1)
        assert frontend.stats.posmap_tree_accesses < walk_cost


class TestAccessResults:
    def test_result_reports_hit_level(self):
        frontend = make("uncompressed")
        frontend.read(0)
        result = frontend.access(1, Op.READ)
        assert result.plb_hit_level == 0

    def test_bytes_split_posmap_vs_data(self):
        frontend = make("uncompressed")
        rng = DeterministicRng(3)
        for _ in range(100):
            frontend.read(rng.randrange(2**10))
        per_access = 2 * frontend.config.path_bytes
        assert frontend.data_bytes_moved == frontend.stats.data_tree_accesses * per_access
        assert (
            frontend.posmap_bytes_moved
            == frontend.stats.posmap_tree_accesses * per_access
        )
        total_storage = frontend.backend.storage.bytes_moved
        assert frontend.data_bytes_moved + frontend.posmap_bytes_moved == total_storage

    def test_write_requires_payload(self):
        with pytest.raises(ValueError):
            make().access(0, Op.WRITE)

    def test_rejects_backend_ops(self):
        with pytest.raises(ConfigurationError):
            make().access(0, Op.READRMV)
