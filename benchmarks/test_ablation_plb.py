"""Ablation bench: PLB associativity (§7.1.3) and PLB value.

Each target times only its own one of the ablation's two saved sweeps.
"""

from conftest import run_once

from repro.eval import ablation_plb
from repro.eval.saved import complete_report, figure_runner


def _own_sweep(index, benchmarks=None, misses=None):
    """The report of sweep ``index`` of :func:`ablation_plb.sweep`."""
    sweep = ablation_plb.sweep(benchmarks)[index]
    return complete_report(sweep, figure_runner("ablation-plb", misses))


def test_plb_associativity(benchmark, figure_args, check):
    report = run_once(benchmark, _own_sweep, 0, **figure_args)
    ratios = ablation_plb.associativity_from_report(report)
    check("ablation-plb", ablation_plb.headline((ratios, {})))
    assert ratios[1] == 1.0
    # Higher associativity may help but never by more than ~10%.
    for ways in (2, 4, 8):
        assert ratios[ways] > 0.85
        assert ratios[ways] < 1.05


def test_plb_value(benchmark, figure_args):
    report = run_once(benchmark, _own_sweep, 1, **figure_args)
    ratios = ablation_plb.value_from_report(report)
    # High-locality workloads gain the most; even mcf must not lose.
    assert max(ratios.values()) > 1.2
    assert min(ratios.values()) >= 0.95
