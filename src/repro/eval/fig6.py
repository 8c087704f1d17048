"""Figure 6: scheme composability — R_X8 vs PC_X32 vs PIC_X32.

Slowdown of each scheme relative to an insecure system without ORAM, per
SPEC stand-in plus the geometric mean. The headline numbers are PC_X32's
geomean speedup over R_X8 and what adding PMMAC (PIC_X32) costs on top.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.eval.paper_values import report
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


def headline(table: Mapping[str, Mapping[str, float]]) -> Dict[str, float]:
    """PC_X32's geomean speedup over R_X8; PIC_X32's overhead over it (%)."""
    pc = table["PC_X32"]["geomean"]
    return {
        "fig6.pc_speedup": table["R_X8"]["geomean"] / pc,
        "fig6.pic_overhead": 100 * (table["PIC_X32"]["geomean"] / pc - 1),
    }


def main() -> None:
    """Print the Fig. 6 slowdown table and headline ratios."""
    table = run()
    print(format_table(table, benchmark_names(), "Figure 6: slowdown vs insecure"))
    report("fig6", headline(table))


if __name__ == "__main__":
    main()
