"""Area model against Table 3."""

import pytest

from repro.area.model import AreaModel
from repro.eval.paper_values import PAPER
from repro.eval.table3 import layout_total


@pytest.fixture
def model():
    return AreaModel(posmap_kib=8, plb_kib=8, pmmac=True)


class TestSynthesisVsPaper:
    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_total_within_5_percent(self, model, channels):
        total = model.synthesis(channels).total
        assert total == pytest.approx(PAPER[f"table3.total.{channels}ch"].paper, rel=0.05)

    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_component_percentages_track_paper(self, model, channels):
        measured = model.synthesis(channels).percentages()
        for name, share in measured.items():
            row = PAPER[f"table3.share.{name}.{channels}ch"]
            assert share == pytest.approx(row.paper, abs=1.5), name

    def test_frontend_share_shrinks_with_channels(self, model):
        """The paper's key scaling point: Frontend cost amortises."""
        shares = [model.synthesis(ch).percentages()["frontend"] for ch in (1, 2, 4)]
        assert shares[2] < shares[0]

    def test_pmmac_below_13_percent(self, model):
        for ch in (1, 2, 4):
            assert model.synthesis(ch).percentages()["pmmac"] <= 13.0

    def test_plb_at_most_10_percent(self, model):
        for ch in (1, 2, 4):
            assert model.synthesis(ch).percentages()["plb"] <= 10.5

    def test_pmmac_off_removes_area(self):
        off = AreaModel(pmmac=False).synthesis(2)
        assert off.pmmac == 0.0

    def test_invalid_channels(self, model):
        with pytest.raises(ValueError):
            model.synthesis(0)


class TestLayout:
    def test_post_layout_total_near_paper(self):
        assert layout_total(2) == pytest.approx(PAPER["table3.layout.2ch"].paper, abs=0.03)

    def test_layout_grows_each_component(self, model):
        synth = model.synthesis(2)
        layout = model.layout(2)
        assert layout.total > synth.total
        assert layout.aes > synth.aes
        assert layout.frontend > synth.frontend


class TestAlternatives:
    def test_no_recursion_posmap_explodes(self, model):
        """§7.2.3: a flat 2^20-entry PosMap costs ~5 mm^2 — >10x total."""
        flat = model.no_recursion_posmap_mm2(2**20, 20)
        assert flat == pytest.approx(PAPER["table3.flat_posmap"].paper, rel=0.1)
        assert flat > 10 * model.synthesis(2).total

    def test_doubling_capacity_doubles_flat_posmap(self, model):
        one = model.no_recursion_posmap_mm2(2**20, 20)
        two = model.no_recursion_posmap_mm2(2**21, 21)
        assert two > 1.9 * one

    def test_64kb_plb_increase(self):
        """§7.2.3: a 64 KB PLB adds ~29% to the 1-channel design."""
        small = AreaModel(plb_kib=8).synthesis(1).total
        big = AreaModel(plb_kib=64).synthesis(1).total
        growth = 100 * (big - small) / small
        assert growth == pytest.approx(PAPER["table3.plb64_growth"].paper, abs=10)
