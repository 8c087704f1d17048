"""Figure 8: apples-to-apples comparison with Ren et al. [26].

Adopts the parameters of that work: 4 DRAM channels, a 2.6 GHz core,
128-byte cache lines / ORAM blocks, Z=3. PC_X64 is the PLB scheme at a
128-byte block (X doubles to 64); PC_X32 keeps 64-byte blocks. The
headline is each one's geomean speedup over the R_X8 baseline and PC_X64's
cut in PosMap traffic.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.config import ProcessorConfig
from repro.dram.config import DramConfig
from repro.eval import fig6
from repro.eval.paper_values import report
from repro.eval.saved import figure_run
from repro.sim.metrics import format_table
from repro.sim.runner import SimulationRunner
from repro.sim.sweep import SweepSpec
from repro.workloads.spec import benchmark_names

#: Fig. 8 scheme rows: (the paper's name, a spec string pinning [26]'s parameters).
SCHEMES: Tuple[Tuple[str, str], ...] = (
    ("R_X8", "R_X8:block_bytes=128,blocks_per_bucket=3"),
    ("PC_X64", "PC_X64:block_bytes=128,blocks_per_bucket=3"),
    ("PC_X32", "PC_X32:block_bytes=64,blocks_per_bucket=3"),
)


def sweep(benchmarks: Optional[Iterable[str]] = None) -> SweepSpec:
    """The three [26]-parameter schemes over the benchmarks."""
    return SweepSpec.from_args(
        schemes=[spec for _name, spec in SCHEMES], benchmarks=benchmarks
    )


def make_runner(misses: Optional[int] = None) -> SimulationRunner:
    """Runner matching [26]'s platform (4 channels, 2.6 GHz, 128 B lines)."""
    proc = ProcessorConfig(core_ghz=2.6, line_bytes=128)
    return SimulationRunner(
        proc=proc,
        dram=DramConfig(channels=4),
        proc_ghz=2.6,
        misses_per_benchmark=misses,
    )


def table_from_report(
    report: Mapping[str, object],
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, Dict[str, float]]]:
    """(slowdowns, posmap_traffic), rows keyed by the paper's scheme names.

    ``posmap_traffic[scheme][benchmark]`` is PosMap bytes per ORAM access.
    """
    name_of = {spec: name for name, spec in SCHEMES}
    table = {
        name_of[label]: row for label, row in fig6.table_from_report(report).items()
    }
    traffic: Dict[str, Dict[str, float]] = {}
    for cell in report["cells"]:  # type: ignore[index]
        result = cell["result"]
        per_access = result["posmap_bytes"] / max(result["oram_accesses"], 1)
        traffic.setdefault(name_of[cell["scheme"]], {})[cell["benchmark"]] = per_access
    return table, traffic


run = figure_run(sweep, table_from_report, make_runner)


def headline(result: Tuple[Dict[str, Dict[str, float]], ...]) -> Dict[str, float]:
    """PC_X64's PosMap traffic cut (%) per benchmark and mean; speedups."""
    table, traffic = result
    ours = {
        f"fig8.posmap_cut.{bench}": 100 * (1 - traffic["PC_X64"][bench] / max(r_bytes, 1))
        for bench, r_bytes in traffic["R_X8"].items()
    }
    ours["fig8.posmap_cut"] = sum(ours.values()) / len(ours)
    r_x8 = table["R_X8"]["geomean"]
    for scheme in ("PC_X64", "PC_X32"):
        ours[f"fig8.speedup.{scheme.lower()}"] = r_x8 / table[scheme]["geomean"]
    return ours


def main() -> None:
    """Print slowdowns and PosMap traffic with [26]'s parameters."""
    result = run()
    title = "Figure 8: slowdown vs insecure ([26] parameters: 4ch, 2.6 GHz, Z=3)"
    print(format_table(result[0], benchmark_names(), title))
    ours = headline(result)
    cuts = (f"{key.rsplit('.', 1)[1]} {cut:.0f}%" for key, cut in ours.items()
            if key.startswith("fig8.posmap_cut."))
    print("PC_X64 PosMap traffic cut:", "  ".join(cuts))
    report("fig8", ours)


if __name__ == "__main__":
    main()
