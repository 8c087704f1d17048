"""Analytic bandwidth and hash models against the paper's claims."""

import pytest

from repro.analytic.bandwidth import (
    compressed_overhead_term,
    posmap_fraction,
    recursion_breakdown,
    recursive_level_sizes,
    recursive_overhead_term,
    unified_access_bytes,
)
from repro.analytic.hashbw import (
    hash_reduction_factor,
    merkle_bytes_hashed_per_access,
    merkle_hash_blocks_per_access,
    pmmac_bytes_hashed_per_access,
    pmmac_hash_blocks_per_access,
)
from repro.eval.paper_values import PAPER


class TestRecursionBreakdown:
    def test_level_sizes(self):
        assert recursive_level_sizes(2**20, 8, 2**10) == [
            2**20, 2**17, 2**14, 2**11, 2**8,
        ]

    def test_fig3_4gb_64b_point(self):
        """Paper: 56% of bytes from PosMap ORAMs at 4 GB, 64 B, pm8."""
        frac = posmap_fraction(1 << 32, 64, 8 * 1024)
        assert frac == pytest.approx(0.56, abs=0.03)

    def test_fig3_4gb_128b_point(self):
        """Paper: 39% at 4 GB, 128 B blocks."""
        frac = posmap_fraction(1 << 32, 128, 8 * 1024)
        assert frac == pytest.approx(0.39, abs=0.04)

    def test_fraction_grows_with_capacity(self):
        """Fig. 3's upward trend."""
        small = posmap_fraction(1 << 30, 64, 8 * 1024)
        large = posmap_fraction(1 << 40, 64, 8 * 1024)
        assert large > small

    def test_bigger_onchip_posmap_helps_slightly(self):
        pm8 = posmap_fraction(1 << 34, 64, 8 * 1024)
        pm256 = posmap_fraction(1 << 34, 64, 256 * 1024)
        assert pm256 < pm8
        assert pm8 - pm256 < 0.15  # "only slightly dampens" (§3.2.1)

    def test_breakdown_totals(self):
        b = recursion_breakdown(2**20)
        assert b.total_bytes == b.data_bytes + b.posmap_bytes
        assert 0 < b.posmap_fraction < 1


class TestUnifiedBytes:
    def test_perfect_plb_has_no_posmap_traffic(self):
        u = unified_access_bytes(2**20, posmap_accesses_per_data_access=0.0)
        assert u.posmap_bytes == 0

    def test_posmap_rate_scales(self):
        lo = unified_access_bytes(2**20, posmap_accesses_per_data_access=0.2)
        hi = unified_access_bytes(2**20, posmap_accesses_per_data_access=1.0)
        assert hi.posmap_bytes == pytest.approx(5 * lo.posmap_bytes, rel=0.01)

    def test_mac_bytes_increase_traffic(self):
        plain = unified_access_bytes(2**20, mac_bytes=0)
        mac = unified_access_bytes(2**20, mac_bytes=14)
        assert mac.data_bytes > plain.data_bytes

    def test_fig7_pc_vs_r_reduction_shape(self):
        """PC_X32 with measured-scale PLB rates cuts R_X8 traffic ~40%,
        growing with capacity (Fig. 7)."""
        cuts = []
        for log_cap in (32, 36):
            r = recursion_breakdown(1 << (log_cap - 6), onchip_posmap_bytes=256 * 1024)
            pc = unified_access_bytes(
                1 << (log_cap - 6), fanout=32, posmap_accesses_per_data_access=0.35
            )
            cuts.append(1 - pc.total_bytes / r.total_bytes)
        assert cuts[0] > 0.25
        assert cuts[1] > cuts[0]


class TestAsymptotics:
    def test_compressed_beats_recursive_small_blocks(self):
        """§5.4: for B = o(log^2 N) compression wins asymptotically."""
        n, b = 2**26, 512
        assert compressed_overhead_term(n, b) < recursive_overhead_term(n, b)

    def test_advantage_grows_with_n(self):
        ratios = [
            recursive_overhead_term(1 << k, 512) / compressed_overhead_term(1 << k, 512)
            for k in (20, 30, 40)
        ]
        assert ratios == sorted(ratios)


class TestHashBandwidth:
    def test_paper_68x(self):
        assert hash_reduction_factor(16) == PAPER["hashbw.reduction.L16"].paper

    def test_paper_132x(self):
        assert hash_reduction_factor(32) == PAPER["hashbw.reduction.L32"].paper

    def test_blocks_per_access(self):
        assert merkle_hash_blocks_per_access(16) == 68
        assert pmmac_hash_blocks_per_access() == 1

    def test_bytes_per_access_ordering(self):
        merkle = merkle_bytes_hashed_per_access(16, bucket_bytes=320)
        pmmac = pmmac_bytes_hashed_per_access(64)
        assert merkle / pmmac > 68  # byte ratio exceeds the block ratio

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValueError):
            merkle_hash_blocks_per_access(-1)
