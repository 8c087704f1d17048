"""Figure 6 bench: R_X8 vs PC_X32 vs PIC_X32 slowdowns."""

from conftest import run_once

from repro.eval import fig6


def test_fig6_composed_schemes(benchmark, figure_args, check):
    ours = fig6.headline(run_once(benchmark, fig6.run, **figure_args))
    check("fig6", ours)
    # Shape: PC strictly beats R; PMMAC costs a modest premium.
    assert ours["fig6.pc_speedup"] > 1.1
    assert 0 <= ours["fig6.pic_overhead"] < 35
