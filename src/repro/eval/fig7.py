"""Figure 7: data moved per ORAM access at 4 / 16 / 64 GB capacities.

For each scheme the bar is total KB per access, with the PosMap share
shaded. R_X8's PosMap share grows quickly with capacity; PLB schemes stay
nearly flat. The headline is how much PC_X32 cuts PosMap and total bytes
against R_X8 at 4 and at 64 GB.

PLB hit behaviour cannot be computed in closed form, so the average
number of PosMap fetches per access is *measured* at simulation scale
(over a benchmark mix spanning the locality spectrum) and then combined
with the exact per-capacity tree geometry of
:func:`repro.analytic.bandwidth.unified_access_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.analytic.bandwidth import recursion_breakdown, unified_access_bytes
from repro.eval.paper_values import report
from repro.eval.saved import default_runner, figure_run
from repro.sim.sweep import SweepSpec
from repro.utils.units import GiB

#: Schemes of Fig. 7 in plot order, with their Unified-tree parameters
#: (fanout, mac_bytes); R_X8 uses the separate-tree analytic path.
PLB_SCHEMES: Dict[str, Tuple[int, int]] = {
    "P_X16": (16, 0),
    "PC_X32": (32, 0),
    "PI_X8": (8, 14),
    "PIC_X32": (32, 14),
}

#: Capacities of Fig. 7.
CAPACITIES: Tuple[int, ...] = (4 * GiB, 16 * GiB, 64 * GiB)

#: Block size and on-chip PosMap entries of the analytic bars.
BLOCK_BYTES = 64
ONCHIP_ENTRIES = 2**11

#: Default benchmark mix for the measured PosMap rates — spans the
#: locality spectrum so the average PLB behaviour approximates a suite
#: mean rather than a worst case.
RATE_BENCHMARKS: Tuple[str, ...] = ("hmmer", "gcc", "h264", "libq", "mcf")


@dataclass
class Fig7Bar:
    """One bar of Fig. 7."""

    scheme: str
    capacity_bytes: int
    total_kb: float
    posmap_kb: float

    @property
    def posmap_fraction(self) -> float:
        """Shaded share of the bar."""
        return self.posmap_kb / self.total_kb if self.total_kb else 0.0


def sweep(benchmarks: Optional[Iterable[str]] = None) -> SweepSpec:
    """The PLB schemes over the rate benchmarks."""
    return SweepSpec.from_args(
        schemes=list(PLB_SCHEMES),
        benchmarks=RATE_BENCHMARKS if benchmarks is None else benchmarks,
    )


make_runner = default_runner


def table_from_report(report: Mapping[str, object]) -> List[Fig7Bar]:
    """All Fig. 7 bars (R_X8 analytic; PLB schemes hybrid).

    A PLB scheme's rate is its PosMap tree accesses per data access,
    summed over the report's benchmarks.
    """
    posmap: Dict[str, int] = {}
    data: Dict[str, int] = {}
    for cell in report["cells"]:  # type: ignore[index]
        result = cell["result"]
        scheme = cell["scheme"]
        data[scheme] = data.get(scheme, 0) + result["oram_accesses"]
        posmap[scheme] = (
            posmap.get(scheme, 0) + result["tree_accesses"] - result["oram_accesses"]
        )
    bars: List[Fig7Bar] = []
    for capacity in CAPACITIES:
        num_blocks = capacity // BLOCK_BYTES
        r = recursion_breakdown(
            num_blocks,
            data_block_bytes=BLOCK_BYTES,
            onchip_posmap_bytes=256 * 1024,
        )
        bars.append(
            Fig7Bar("R_X8", capacity, r.total_bytes / 1024, r.posmap_bytes / 1024)
        )
        for scheme, (fanout, mac_bytes) in PLB_SCHEMES.items():
            u = unified_access_bytes(
                num_blocks,
                block_bytes=BLOCK_BYTES,
                fanout=fanout,
                onchip_entries=ONCHIP_ENTRIES,
                mac_bytes=mac_bytes,
                posmap_accesses_per_data_access=(
                    posmap[scheme] / data[scheme] if data[scheme] else 0.0
                ),
            )
            bars.append(
                Fig7Bar(scheme, capacity, u.total_bytes / 1024, u.posmap_bytes / 1024)
            )
    return bars


run = figure_run(sweep, table_from_report)


def headline(bars: List[Fig7Bar]) -> Dict[str, float]:
    """PC_X32's PosMap and total byte cuts against R_X8 at 4 and 64 GB (%)."""
    lookup = {(b.scheme, b.capacity_bytes): b for b in bars}
    ours = {}
    for cap in (4 * GiB, 64 * GiB):
        r, pc = lookup[("R_X8", cap)], lookup[("PC_X32", cap)]
        ours[f"fig7.posmap_cut.{cap // GiB}gb"] = 100 * (1 - pc.posmap_kb / r.posmap_kb)
        ours[f"fig7.total_cut.{cap // GiB}gb"] = 100 * (1 - pc.total_kb / r.total_kb)
    return ours


def main() -> None:
    """Print the Fig. 7 bars and headline reductions."""
    bars = run()
    print("Figure 7: KB moved per ORAM access (PosMap share in parentheses)")
    by_cap: Dict[int, List[Fig7Bar]] = {}
    for bar in bars:
        by_cap.setdefault(bar.capacity_bytes, []).append(bar)
    for capacity, group in by_cap.items():
        row = "  ".join(
            f"{b.scheme}={b.total_kb:.1f}KB({100 * b.posmap_fraction:.0f}%)"
            for b in group
        )
        print(f"{capacity // GiB:>3} GB: {row}")
    report("fig7", headline(bars))


if __name__ == "__main__":
    main()
