"""Figure 8: apples-to-apples comparison with Ren et al. [26].

Adopts the parameters of that work: 4 DRAM channels, a 2.6 GHz core,
128-byte cache lines / ORAM blocks, Z=3. PC_X64 is the PLB scheme at a
128-byte block (X doubles to 64); PC_X32 keeps 64-byte blocks. The paper
reports ~1.27x geomean speedup for both over the R_X8 baseline and a 95%
cut in PosMap traffic for PC_X64.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.config import ProcessorConfig
from repro.dram.config import DramConfig
from repro.sim.metrics import format_table, slowdown_table
from repro.sim.runner import SimulationRunner
from repro.sim.store import cached_figure_table
from repro.workloads.spec import benchmark_names

#: Fig. 8 scheme row order with the per-scheme cell overrides.
SCHEME_OVERRIDES = {
    "R_X8": {"block_bytes": 128, "blocks_per_bucket": 3},
    "PC_X64": {"block_bytes": 128, "blocks_per_bucket": 3},
    "PC_X32": {"block_bytes": 64, "blocks_per_bucket": 3},
}


def make_runner(misses: Optional[int] = None) -> SimulationRunner:
    """Runner matching [26]'s platform (4 channels, 2.6 GHz, 128 B lines).

    Public so the saved-sweep path (:mod:`repro.eval.sweeps`) drives the
    exact same configuration.
    """
    proc = ProcessorConfig(core_ghz=2.6, line_bytes=128)
    return SimulationRunner(
        proc=proc,
        dram=DramConfig(channels=4),
        proc_ghz=2.6,
        misses_per_benchmark=misses,
    )


#: Back-compat alias (pre-saved-sweep name).
_runner = make_runner


def run(
    benchmarks: Optional[Iterable[str]] = None,
    misses: Optional[int] = None,
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, float]]:
    """Slowdown table for R_X8 / PC_X64 / PC_X32 plus traffic cuts.

    Returns (slowdowns, posmap_traffic) where posmap_traffic maps scheme
    to average PosMap bytes per access. The assembled pair is memoised
    on disk keyed by every cell's canonical identity (baselines
    included); ``--force`` refreshes it (:mod:`repro.sim.store`).
    """
    runner = _runner(misses)
    names = list(benchmarks) if benchmarks is not None else benchmark_names()

    def build():
        results = {
            scheme: {
                n: runner.run_one(scheme, n, **overrides) for n in names
            }
            for scheme, overrides in SCHEME_OVERRIDES.items()
        }
        baselines = runner.baselines(names)
        table = slowdown_table(results, baselines, tuple(SCHEME_OVERRIDES))
        traffic = {
            scheme: {
                bench: r.posmap_bytes / max(r.oram_accesses, 1)
                for bench, r in results[scheme].items()
            }
            for scheme in results
        }
        return [table, traffic]

    cell_keys = [
        runner.result_key(scheme, n, **overrides)
        for scheme, overrides in SCHEME_OVERRIDES.items()
        for n in names
    ] + [runner.result_key("insecure", n) for n in names]
    table, traffic = cached_figure_table("fig8", runner, cell_keys, build)
    return table, traffic


def main() -> None:
    """Print slowdowns and PosMap traffic with [26]'s parameters."""
    table, traffic = run()
    print(
        format_table(
            table,
            benchmark_names(),
            "Figure 8: slowdown vs insecure ([26] parameters: 4ch, 2.6 GHz, Z=3)",
        )
    )
    for scheme in ("PC_X64", "PC_X32"):
        speedup = table["R_X8"]["geomean"] / table[scheme]["geomean"]
        print(f"{scheme} speedup over R_X8: {speedup:.2f}x (paper: ~1.27x)")
    for bench, r_bytes in traffic["R_X8"].items():
        cut = 1 - traffic["PC_X64"][bench] / max(r_bytes, 1)
        print(f"PC_X64 PosMap traffic cut on {bench}: {100 * cut:.0f}% (paper avg: 95%)")


if __name__ == "__main__":
    main()
