"""Figure 9 bench: PC_X32 speedup over the Phantom 4 KB configuration."""

from conftest import run_once

from repro.eval import fig9


def test_fig9_phantom(benchmark, figure_args, check):
    ours = fig9.headline(run_once(benchmark, fig9.run, **figure_args))
    check("fig9", ours)
    assert ours["fig9.speedup"] > 3.0  # order-of-magnitude class win
