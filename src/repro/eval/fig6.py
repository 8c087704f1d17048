"""Figure 6: scheme composability — R_X8 vs PC_X32 vs PIC_X32.

Slowdown of each scheme relative to an insecure system without ORAM, per
SPEC stand-in plus the geometric mean. The paper's headline numbers:
PC_X32 achieves a 1.43x speedup over R_X8 (geomean), and adding PMMAC
(PIC_X32) costs only ~7% on top of PC_X32.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.eval.saved import default_runner, figure_run
from repro.sim.metrics import format_table
from repro.sim.sweep import SweepSpec
from repro.utils.stats import geometric_mean
from repro.workloads.spec import benchmark_names

#: Schemes of Fig. 6 in plot order.
SCHEMES: Sequence[str] = ("R_X8", "PC_X32", "PIC_X32")


def sweep(benchmarks: Optional[Iterable[str]] = None) -> SweepSpec:
    """The three schemes over the benchmarks."""
    return SweepSpec.from_args(schemes=list(SCHEMES), benchmarks=benchmarks)


make_runner = default_runner


def table_from_report(report: Mapping[str, object]) -> Dict[str, Dict[str, float]]:
    """``table[scheme label][benchmark]`` slowdowns plus a ``geomean`` key."""
    table: Dict[str, Dict[str, float]] = {}
    for cell in report["cells"]:  # type: ignore[index]
        table.setdefault(cell["scheme"], {})[cell["benchmark"]] = cell["slowdown"]
    for row in table.values():
        row["geomean"] = geometric_mean(list(row.values()))
    return table


run = figure_run(sweep, table_from_report)


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
