"""Table 2 bench: ORAM tree latency vs DRAM channel count."""

from conftest import run_once

from repro.eval import table2


def test_table2_dram_channels(benchmark, check):
    check("table2", table2.headline(run_once(benchmark, table2.run)))
