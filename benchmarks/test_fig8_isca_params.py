"""Figure 8 bench: comparison under the [26] parameters."""

from conftest import run_once

from repro.eval import fig8


def test_fig8_isca_params(benchmark, figure_args, check):
    ours = fig8.headline(run_once(benchmark, fig8.run, **figure_args))
    check("fig8", ours)
    assert ours["fig8.speedup.pc_x64"] > 1.05
    assert ours["fig8.speedup.pc_x32"] > 1.05
    # PosMap *accesses* drop sharply with the PLB; the byte cut depends on
    # the workload's locality because every PLB miss moves a full
    # Unified-tree path (mcf-class pointer chasing is the adversarial
    # case). Locality-bearing workloads see deep cuts.
    assert max(v for k, v in ours.items() if k.startswith("fig8.posmap_cut.")) > 50
