"""Figure 5: PLB design space — direct-mapped capacity sweep.

Runs every SPEC stand-in against the PLB frontend at 8/32/64/128 KB and
reports runtime normalised to the 8 KB point. The paper's case for a
64 KB direct-mapped PLB is a small average gain going 64 KB -> 128 KB.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.eval.paper_values import report
from repro.eval.saved import figure_run
from repro.sim.sweep import SweepSpec

#: Capacities of the Fig. 5 sweep, in bytes.
CAPACITIES: Tuple[int, ...] = (8 * 1024, 32 * 1024, 64 * 1024, 128 * 1024)


def sweep(benchmarks: Optional[Iterable[str]] = None) -> SweepSpec:
    """PC_X32 across the PLB capacity grid."""
    return SweepSpec.from_args(
        schemes=["PC_X32"],
        grid={"plb_capacity_bytes": list(CAPACITIES)},
        benchmarks=benchmarks,
    )


def table_from_report(report: Mapping[str, object]) -> Dict[str, Dict[int, float]]:
    """``table[benchmark][capacity_bytes] = cycles / cycles_at_8KB``."""
    cycles: Dict[str, Dict[int, float]] = {}
    for cell in report["cells"]:  # type: ignore[index]
        capacity = cell["spec"]["plb_capacity_bytes"]
        cycles.setdefault(cell["benchmark"], {})[capacity] = cell["result"]["cycles"]
    return {
        bench: {cap: row[cap] / row[CAPACITIES[0]] for cap in CAPACITIES}
        for bench, row in cycles.items()
    }


run = figure_run("fig5", sweep, table_from_report)


def headline(table: Mapping[str, Mapping[int, float]]) -> Dict[str, float]:
    """Runtime change 8 KB -> 128 KB per benchmark, average gain 64 -> 128 KB (%)."""
    ours = {
        f"fig5.runtime_128k.{bench}": 100 * (row[CAPACITIES[-1]] - 1)
        for bench, row in table.items()
    }
    gains = [row[CAPACITIES[2]] / row[CAPACITIES[3]] for row in table.values()]
    ours["fig5.gain_64k_128k"] = 100 * (sum(gains) / len(gains) - 1)
    return ours


def main() -> None:
    """Print the normalised-runtime sweep."""
    table = run()
    caps = CAPACITIES
    print("Figure 5: runtime normalised to the 8 KB direct-mapped PLB")
    print(f"{'bench':>7} " + " ".join(f"{c // 1024:>5}K" for c in caps))
    for bench, row in table.items():
        print(f"{bench:>7} " + " ".join(f"{row[c]:6.3f}" for c in caps))
    report("fig5", headline(table))


if __name__ == "__main__":
    main()
