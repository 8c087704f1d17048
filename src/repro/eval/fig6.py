"""Figure 6: scheme composability — R_X8 vs PC_X32 vs PIC_X32.

Slowdown of each scheme relative to an insecure system without ORAM, per
SPEC stand-in plus the geometric mean. The paper's headline numbers:
PC_X32 achieves a 1.43x speedup over R_X8 (geomean), and adding PMMAC
(PIC_X32) costs only ~7% on top of PC_X32.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.sim.metrics import format_table, slowdown_table
from repro.sim.runner import SimulationRunner
from repro.sim.store import cached_figure_table
from repro.workloads.spec import benchmark_names

#: Schemes of Fig. 6 in plot order.
SCHEMES: Sequence[str] = ("R_X8", "PC_X32", "PIC_X32")


def run(
    benchmarks: Optional[Iterable[str]] = None,
    schemes: Sequence[str] = SCHEMES,
    misses: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Slowdown table: ``table[scheme][benchmark]`` plus ``geomean``.

    The assembled table is memoised on disk keyed by every cell's
    canonical identity — scheme specs, benchmarks, trace parameters and
    the insecure baselines (:mod:`repro.sim.store`); ``--force``
    refreshes it.
    """
    runner = SimulationRunner(misses_per_benchmark=misses)
    names = list(benchmarks) if benchmarks is not None else benchmark_names()

    def build() -> Dict[str, Dict[str, float]]:
        results = runner.run_suite(schemes, names)
        baselines = runner.baselines(names)
        return slowdown_table(results, baselines, schemes)

    cell_keys = [
        runner.result_key(scheme, name)
        for scheme in schemes
        for name in names
    ] + [runner.result_key("insecure", name) for name in names]
    return cached_figure_table("fig6", runner, cell_keys, build)


def main() -> None:
    """Print the Fig. 6 slowdown table and headline ratios."""
    table = run()
    print(format_table(table, benchmark_names(), "Figure 6: slowdown vs insecure"))
    pc_speedup = table["R_X8"]["geomean"] / table["PC_X32"]["geomean"]
    pic_overhead = table["PIC_X32"]["geomean"] / table["PC_X32"]["geomean"] - 1
    print(f"\nPC_X32 speedup over R_X8 (geomean): {pc_speedup:.2f}x (paper: 1.43x)")
    print(f"PIC_X32 overhead over PC_X32: {100 * pic_overhead:.1f}% (paper: 7%)")


if __name__ == "__main__":
    main()
