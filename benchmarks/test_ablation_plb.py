"""Ablation bench: PLB associativity (§7.1.3) and PLB value.

Each target times only its own one of the ablation's two saved sweeps.
"""

from conftest import run_once

from repro.eval import ablation_plb
from repro.eval.saved import complete_report


def _own_sweep(index, benchmarks, misses):
    """The report of sweep ``index`` of :func:`ablation_plb.sweep`."""
    sweep = ablation_plb.sweep(benchmarks)[index]
    return complete_report(sweep, ablation_plb.make_runner(misses))


def test_plb_associativity(benchmark, bench_benchmarks, bench_misses):
    report = run_once(benchmark, _own_sweep, 0, bench_benchmarks, bench_misses)
    ratios = ablation_plb.associativity_from_report(report)
    print()
    print("PLB associativity ablation (paper: full-assoc gains <= 10%)")
    for ways, ratio in ratios.items():
        print(f"  {ways}-way vs direct-mapped: {ratio:.3f}")
    assert ratios[1] == 1.0
    # Higher associativity may help but never by more than ~10%.
    for ways in (2, 4, 8):
        assert ratios[ways] > 0.85
        assert ratios[ways] < 1.05


def test_plb_value(benchmark, bench_benchmarks, bench_misses):
    report = run_once(benchmark, _own_sweep, 1, bench_benchmarks, bench_misses)
    ratios = ablation_plb.value_from_report(report)
    print()
    print("Value of the PLB (no-PLB runtime / 64KB-PLB runtime)")
    for name, ratio in ratios.items():
        print(f"  {name:>7}: {ratio:.2f}x")
    # High-locality workloads gain the most; even mcf must not lose.
    assert max(ratios.values()) > 1.2
    assert min(ratios.values()) >= 0.95
