"""Figure 5: PLB design space — direct-mapped capacity sweep.

Runs every SPEC stand-in against the PLB frontend at 8/32/64/128 KB and
reports runtime normalised to the 8 KB point. The paper sees <= 10%
improvements for most benchmarks but 67% (bzip2) and 49% (mcf) going
8 KB -> 128 KB, and only 2.7% average going 64 KB -> 128 KB (why it
settles on a 64 KB direct-mapped PLB).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.runner import SimulationRunner
from repro.sim.store import cached_figure_table
from repro.workloads.spec import benchmark_names

#: Capacities of the Fig. 5 sweep, in bytes.
CAPACITIES: Tuple[int, ...] = (8 * 1024, 32 * 1024, 64 * 1024, 128 * 1024)


def normalise(
    cycles_by_bench: Dict[str, Dict[int, float]],
    capacities: Tuple[int, ...] = CAPACITIES,
) -> Dict[str, Dict[int, float]]:
    """Normalise per-capacity cycles to the smallest capacity's runtime.

    Shared by the legacy loop below and the saved-sweep path
    (:func:`repro.eval.sweeps.fig5_table_from_report`), so the two are
    arithmetically one.
    """
    return {
        bench: {cap: row[cap] / row[capacities[0]] for cap in capacities}
        for bench, row in cycles_by_bench.items()
    }


def run(
    benchmarks: Optional[Iterable[str]] = None,
    capacities: Tuple[int, ...] = CAPACITIES,
    misses: Optional[int] = None,
    scheme: str = "PC_X32",
) -> Dict[str, Dict[int, float]]:
    """Normalised runtime per benchmark per PLB capacity.

    Returns ``table[benchmark][capacity_bytes] = runtime / runtime_8KB``.
    The same sweep is available declaratively as
    :func:`repro.eval.sweeps.fig5_sweep`. The assembled table is
    memoised on disk keyed by every cell's canonical identity
    (:mod:`repro.sim.store`); ``--force`` refreshes it.
    """
    runner = SimulationRunner(misses_per_benchmark=misses)
    names = list(benchmarks) if benchmarks is not None else benchmark_names()

    def build() -> Dict[str, Dict[int, float]]:
        cycles_by_bench: Dict[str, Dict[int, float]] = {}
        for name in names:
            cycles_by_bench[name] = {
                capacity: runner.run_one(
                    scheme, name, plb_capacity_bytes=capacity
                ).cycles
                for capacity in capacities
            }
        return normalise(cycles_by_bench, capacities)

    cell_keys = [
        runner.result_key(scheme, name, plb_capacity_bytes=capacity)
        for name in names
        for capacity in capacities
    ]
    return cached_figure_table("fig5", runner, cell_keys, build)


def main() -> None:
    """Print the normalised-runtime sweep."""
    table = run()
    caps = CAPACITIES
    print("Figure 5: runtime normalised to the 8 KB direct-mapped PLB")
    print(f"{'bench':>7} " + " ".join(f"{c // 1024:>5}K" for c in caps))
    for bench, row in table.items():
        print(f"{bench:>7} " + " ".join(f"{row[c]:6.3f}" for c in caps))
    avg_64_to_128 = sum(row[caps[2]] / row[caps[3]] for row in table.values()) / len(table)
    print(f"\n64K->128K average gain: {100 * (avg_64_to_128 - 1):.1f}% (paper: 2.7%)")


if __name__ == "__main__":
    main()
