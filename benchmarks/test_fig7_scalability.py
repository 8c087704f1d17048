"""Figure 7 bench: KB per ORAM access at 4/16/64 GB."""

from conftest import run_once

from repro.eval import fig7
from repro.utils.units import GiB


def test_fig7_scalability(benchmark, figure_args, check):
    bars = run_once(benchmark, fig7.run, **figure_args)
    ours = fig7.headline(bars)
    check("fig7", ours)
    for cap in (4, 64):
        assert ours[f"fig7.total_cut.{cap}gb"] > 0
        assert ours[f"fig7.posmap_cut.{cap}gb"] > 0
    # The cut deepens with capacity, because R_X8 adds recursion levels
    # while the PLB schemes stay flat. The absolute cut depends on
    # workload locality (the measured PosMap rates).
    assert ours["fig7.total_cut.64gb"] > ours["fig7.total_cut.4gb"]
    # R's PosMap fraction grows with capacity; PI_X8 is posmap-heavy.
    share = {(b.scheme, b.capacity_bytes // GiB): b.posmap_fraction for b in bars}
    assert share[("R_X8", 64)] > share[("R_X8", 4)]
    assert share[("PI_X8", 4)] > share[("PIC_X32", 4)]
