"""Compressed-PosMap group remaps end-to-end through the Frontend (§5.2.2)."""

import pytest

from repro.backend.ops import Op
from repro.frontend.unified import PlbFrontend
from repro.spec import SchemeSpec
from repro.utils.rng import DeterministicRng


def make(beta=3, pmmac=False, num_blocks=2**9):
    return PlbFrontend(
        SchemeSpec(
            num_blocks=num_blocks,
            posmap_format="compressed",
            compressed_beta=beta,
            pmmac=pmmac,
            onchip_entries=2**3,
            plb_capacity_bytes=2 * 1024,
            storage="object",
        ),
        rng=DeterministicRng(17),
    )


@pytest.mark.parametrize("pmmac", [False, True])
class TestGroupRemap:
    def test_hammering_triggers_group_remap(self, pmmac):
        """Repeated access to one block rolls its IC over."""
        frontend = make(beta=3, pmmac=pmmac)
        for _ in range(2 ** 3 + 2):
            frontend.read(5)
        assert frontend.stats.group_remaps >= 1

    def test_data_survives_group_remap(self, pmmac):
        """Sibling blocks must be relocated, not lost."""
        frontend = make(beta=3, pmmac=pmmac)
        fanout = frontend.format.fanout
        # Write distinct data to several blocks of one group (group 0).
        payloads = {}
        for j in range(0, min(fanout, 8)):
            payloads[j] = bytes([j + 1]) * 64
            frontend.write(j, payloads[j])
        # Hammer block 0 until the group remaps at least twice.
        for _ in range(2 ** 4 + 4):
            frontend.read(0)
        assert frontend.stats.group_remaps >= 1
        for j, payload in payloads.items():
            assert frontend.read(j) == payload

    def test_relocations_counted(self, pmmac):
        frontend = make(beta=3, pmmac=pmmac)
        for _ in range(2 ** 3 + 2):
            frontend.read(5)
        # All siblings except the accessed one get relocated (some may be
        # PLB-resident PosMap blocks, but at level 0 siblings are data).
        assert frontend.stats.group_relocations >= frontend.format.fanout // 2

    def test_interleaved_traffic_after_remap(self, pmmac):
        """The system keeps working normally after many group remaps."""
        frontend = make(beta=2, pmmac=pmmac)
        rng = DeterministicRng(71)
        shadow = {}
        for step in range(400):
            addr = rng.randrange(2**9)
            if rng.random() < 0.4:
                data = bytes([step % 256]) * 64
                frontend.write(addr, data)
                shadow[addr] = data
            else:
                assert frontend.read(addr) == shadow.get(addr, bytes(64))
        assert frontend.stats.group_remaps > 0


class TestRemapRate:
    def test_overhead_tracks_formula(self):
        """Worst-case relocation rate ~ (X-1)/2^beta (§5.3)."""
        beta = 4
        frontend = make(beta=beta)
        target = 3
        frontend.read(target)
        start = frontend.stats.group_relocations
        n = 600
        for _ in range(n):
            frontend.read(target)
        rate = (frontend.stats.group_relocations - start) / n
        expected = (frontend.format.fanout - 1) / (1 << beta)
        assert rate == pytest.approx(expected, rel=0.2)

    def test_no_group_remaps_with_flat_counters(self):
        frontend = PlbFrontend(
            SchemeSpec(
                num_blocks=2**9,
                posmap_format="flat",
                onchip_entries=2**3,
                plb_capacity_bytes=8 * 1024,
                storage="object",
            ),
            rng=DeterministicRng(5),
        )
        for _ in range(200):
            frontend.read(5)
        assert frontend.stats.group_remaps == 0
