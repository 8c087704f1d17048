"""Figure 7: data moved per ORAM access at 4 / 16 / 64 GB capacities.

For each scheme the bar is total KB per access, with the PosMap share
shaded. R_X8's PosMap share grows quickly with capacity; PLB schemes stay
nearly flat. Paper headline: at 4 GB, PC_X32 cuts PosMap bandwidth by 82%
and total by 38% vs R_X8; at 64 GB the cuts reach 90% and 57%.

PLB hit behaviour cannot be computed in closed form, so the average
number of PosMap fetches per access is *measured* at simulation scale
(suite average over the SPEC stand-ins) and then combined with the exact
per-capacity tree geometry — the hybrid documented in DESIGN.md §3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analytic.bandwidth import recursion_breakdown, unified_access_bytes
from repro.sim.runner import SimulationRunner
from repro.sim.store import cached_figure_table
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


def measure_posmap_rate(
    scheme: str,
    benchmarks: Optional[Iterable[str]] = None,
    misses: Optional[int] = None,
    runner: Optional[SimulationRunner] = None,
) -> float:
    """Average PosMap tree accesses per data access at simulation scale."""
    if runner is None:
        runner = SimulationRunner(misses_per_benchmark=misses)
    names = (
        list(benchmarks) if benchmarks is not None else list(RATE_BENCHMARKS)
    )
    total_posmap = 0
    total_data = 0
    for name in names:
        result = runner.run_one(scheme, name)
        total_data += result.oram_accesses
        total_posmap += result.tree_accesses - result.oram_accesses
    return total_posmap / total_data if total_data else 0.0


def run(
    capacities: Sequence[int] = CAPACITIES,
    block_bytes: int = 64,
    onchip_entries: int = 2**11,
    benchmarks: Optional[Iterable[str]] = None,
    misses: Optional[int] = None,
    rates: Optional[Dict[str, float]] = None,
) -> List[Fig7Bar]:
    """All Fig. 7 bars (R_X8 analytic; PLB schemes hybrid).

    ``rates`` injects pre-measured PosMap-accesses-per-data-access rates
    — e.g. recovered from a saved-sweep report via
    :func:`repro.eval.sweeps.fig7_rates_from_report` — skipping the
    in-line measurement entirely. The measured rates are memoised on
    disk keyed by every consumed cell's canonical identity
    (:mod:`repro.sim.store`); ``--force`` refreshes them.
    """
    bars: List[Fig7Bar] = []
    if rates is None:
        runner = SimulationRunner(misses_per_benchmark=misses)
        names = (
            list(benchmarks) if benchmarks is not None else list(RATE_BENCHMARKS)
        )

        def build() -> Dict[str, float]:
            return {
                scheme: measure_posmap_rate(scheme, names, misses, runner=runner)
                for scheme in PLB_SCHEMES
            }

        cell_keys = [
            runner.result_key(scheme, name)
            for scheme in PLB_SCHEMES
            for name in names
        ]
        rates = cached_figure_table("fig7_rates", runner, cell_keys, build)
    for capacity in capacities:
        num_blocks = capacity // block_bytes
        r = recursion_breakdown(
            num_blocks,
            data_block_bytes=block_bytes,
            onchip_posmap_bytes=256 * 1024,
        )
        bars.append(
            Fig7Bar("R_X8", capacity, r.total_bytes / 1024, r.posmap_bytes / 1024)
        )
        for scheme, (fanout, mac_bytes) in PLB_SCHEMES.items():
            u = unified_access_bytes(
                num_blocks,
                block_bytes=block_bytes,
                fanout=fanout,
                onchip_entries=onchip_entries,
                mac_bytes=mac_bytes,
                posmap_accesses_per_data_access=rates[scheme],
            )
            bars.append(
                Fig7Bar(scheme, capacity, u.total_bytes / 1024, u.posmap_bytes / 1024)
            )
    return bars


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
    lookup = {(b.scheme, b.capacity_bytes): b for b in bars}
    for cap, label in ((4 * GiB, "4 GB"), (64 * GiB, "64 GB")):
        r, pc = lookup[("R_X8", cap)], lookup[("PC_X32", cap)]
        posmap_cut = 1 - pc.posmap_kb / r.posmap_kb
        total_cut = 1 - pc.total_kb / r.total_kb
        print(
            f"{label}: PC_X32 cuts PosMap bytes {100 * posmap_cut:.0f}%"
            f", total {100 * total_cut:.0f}%"
            + ("  (paper: 82%/38%)" if cap == 4 * GiB else "  (paper: 90%/57%)")
        )


if __name__ == "__main__":
    main()
