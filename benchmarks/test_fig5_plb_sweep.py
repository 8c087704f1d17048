"""Figure 5 bench: direct-mapped PLB capacity sweep."""

from conftest import run_once

from repro.eval import fig5


def test_fig5_plb_sweep(benchmark, figure_args, check):
    table = run_once(benchmark, fig5.run, **figure_args)
    check("fig5", fig5.headline(table))
    caps = fig5.CAPACITIES
    for bench, row in table.items():
        # Larger PLBs never hurt meaningfully, and the sweep is anchored at 1.
        assert row[caps[0]] == 1.0
        assert row[caps[-1]] <= 1.05
    # Low-locality benchmarks benefit the most from PLB capacity.
    if "mcf" in table and "hmmer" in table:
        assert table["mcf"][caps[-1]] <= table["hmmer"][caps[-1]] + 0.25
