"""Figure 9: PC_X32 speedup over the Phantom [21] configuration.

Phantom avoids recursion by using 4 KB ORAM blocks so the whole PosMap
fits on-chip (~2.5 MB for a 4 GB ORAM: N = 2^20, L = 19). The cost is
byte movement: the paper computes PC_X32's per-access traffic in closed
form, (26 * 64) / (19 * 4096) of Phantom's, and measures its average
speedup, Phantom's 32 KB block buffer notwithstanding.

We model the Phantom point with the non-recursive LinearFrontend at 4 KB
blocks plus a 32 KB CLOCK block buffer in front (Section 5.7 of [21]),
on 2 DRAM channels, and compare against the PC_X32 simulation. Both are
rows of :data:`~repro.eval.paper_values.PLATFORMS`: ``phantom`` and
``fig9``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.config import ProcessorConfig
from repro.dram.model import DramModel
from repro.proc.hierarchy import MissTrace
from repro.eval.paper_values import PLATFORMS, report
from repro.eval.saved import complete_report, figure_runner
from repro.sim.replay import line_block_ratio, translate_block_addrs
from repro.sim.runner import SimulationRunner
from repro.sim.sweep import SweepSpec
from repro.utils.stats import geometric_mean

#: PC_X32's platform, and Phantom's (§7.1.6): its block buffer is the row's
#: ``plb_bytes``.
PLATFORM, PHANTOM = PLATFORMS["fig9"], PLATFORMS["phantom"]

#: Benchmarks of Fig. 9.
BENCHMARKS: Tuple[str, ...] = ("gcc", "libq", "mcf", "hmmer")


def phantom_cycles(
    trace: MissTrace,
    proc: ProcessorConfig,
    oram_latency: float,
) -> float:
    """Replay a trace against the Phantom model (block buffer + big blocks).

    The 32 KB block buffer holds recently fetched 4 KB ORAM blocks with
    CLOCK (approximated as LRU over 8 slots); hits cost an L2-like
    latency, misses cost a full 4 KB-block ORAM access.
    """
    slots = max(PHANTOM.plb_bytes // PHANTOM.block_bytes, 1)
    resident: List[int] = []
    cycles = (
        trace.instructions
        + trace.mem_refs * proc.l1_latency
        + trace.l2_hits * proc.l2_latency
    )
    ratio = line_block_ratio(proc.line_bytes, PHANTOM.block_bytes)
    for block in translate_block_addrs(trace.columns()[0], ratio):
        if block in resident:
            resident.remove(block)
            resident.append(block)
            cycles += proc.l2_latency
            continue
        if len(resident) >= slots:
            resident.pop(0)
        resident.append(block)
        cycles += oram_latency
    return cycles


def phantom_oram_latency() -> float:
    """Per-access latency of the 4 KB-block, L=19 Phantom tree."""
    cfg = PHANTOM.oram
    model = DramModel(cfg.levels, cfg.bucket_bytes, PHANTOM.dram)
    return model.average_oram_latency_proc_cycles(PHANTOM.core_ghz)


def sweep(benchmarks: Optional[Iterable[str]] = None) -> SweepSpec:
    """PC_X32 at 64-byte blocks over the benchmarks."""
    return SweepSpec.from_args(
        schemes=[f"PC_X32:block_bytes={PLATFORM.block_bytes}"],
        benchmarks=BENCHMARKS if benchmarks is None else benchmarks,
    )


def phantom_replays(
    runner: SimulationRunner, benchmarks: Iterable[str]
) -> Dict[str, float]:
    """``{benchmark: Phantom cycles}``: each of the runner's traces replayed
    against the Phantom model; :func:`table_from_report`'s second input."""
    oram_latency = phantom_oram_latency()
    return {
        name: phantom_cycles(runner.trace(name), runner.proc, oram_latency)
        for name in benchmarks
    }


def table_from_report(
    report: Mapping[str, object], phantom: Mapping[str, float]
) -> Dict[str, float]:
    """Per-benchmark speedup: Phantom cycles over PC_X32 cycles."""
    return {
        cell["benchmark"]: phantom[cell["benchmark"]] / cell["result"]["cycles"]
        for cell in report["cells"]  # type: ignore[index]
    }


def run(
    benchmarks: Optional[Iterable[str]] = None,
    misses: Optional[int] = None,
) -> Dict[str, float]:
    """Per-benchmark speedup of PC_X32 over the Phantom configuration."""
    runner = figure_runner("fig9", misses)
    report = complete_report(sweep(benchmarks), runner)
    return table_from_report(report, phantom_replays(runner, report["benchmarks"]))


def headline(speedups: Mapping[str, float]) -> Dict[str, float]:
    """Geomean speedup; PC_X32's share of Phantom's bytes, closed form (%)."""
    pc_path, phantom_path = (
        (platform.oram.levels + 1) * platform.block_bytes
        for platform in (PLATFORM, PHANTOM)
    )
    return {
        "fig9.speedup": geometric_mean(speedups.values()),
        "fig9.byte_ratio": 100 * pc_path / phantom_path,
    }


def main() -> None:
    """Print per-benchmark and geomean speedups over Phantom."""
    speedups = run()
    print("Figure 9: PC_X32 speedup over Phantom (4 KB blocks, no recursion)")
    for name, s in speedups.items():
        print(f"{name:>7}: {s:6.1f}x")
    report("fig9", headline(speedups))


if __name__ == "__main__":
    main()
