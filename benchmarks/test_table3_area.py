"""Table 3 bench: ASIC area breakdown vs channel count."""

from conftest import run_once

from repro.eval import table3


def test_table3_area(benchmark, check):
    ours = table3.headline(run_once(benchmark, table3.run))
    check("table3", ours)
    for ch in (1, 2, 4):
        assert ours[f"table3.share.pmmac.{ch}ch"] <= 13.0
        assert ours[f"table3.share.plb.{ch}ch"] <= 10.5
