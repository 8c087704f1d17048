"""Figure 9: PC_X32 speedup over the Phantom [21] configuration.

Phantom avoids recursion by using 4 KB ORAM blocks so the whole PosMap
fits on-chip (~2.5 MB for a 4 GB ORAM: N = 2^20, L = 19). The cost is
byte movement: the paper computes PC_X32's per-access traffic in closed
form, (26 * 64) / (19 * 4096) of Phantom's, and measures its average
speedup, Phantom's 32 KB block buffer notwithstanding.

We model the Phantom point with the non-recursive LinearFrontend at 4 KB
blocks plus a 32 KB CLOCK block buffer in front (Section 5.7 of [21]),
on 2 DRAM channels, and compare against the PC_X32 simulation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.config import OramConfig, ProcessorConfig
from repro.dram.config import DramConfig
from repro.dram.model import DramModel
from repro.proc.hierarchy import MissTrace
from repro.eval.paper_values import report
from repro.eval.saved import complete_report
from repro.sim.runner import SimulationRunner
from repro.sim.sweep import SweepSpec
from repro.utils.stats import geometric_mean

#: Phantom configuration of §7.1.6.
PHANTOM_BLOCK_BYTES = 4096
PHANTOM_BUFFER_BYTES = 32 * 1024
PHANTOM_LINE_BYTES = 128

#: Benchmarks of Fig. 9.
BENCHMARKS: Tuple[str, ...] = ("gcc", "libq", "mcf", "hmmer")


def phantom_cycles(
    trace: MissTrace,
    proc: ProcessorConfig,
    oram_latency: float,
    block_bytes: int = PHANTOM_BLOCK_BYTES,
    buffer_bytes: int = PHANTOM_BUFFER_BYTES,
) -> float:
    """Replay a trace against the Phantom model (block buffer + big blocks).

    The 32 KB block buffer holds recently fetched 4 KB ORAM blocks with
    CLOCK (approximated as LRU over 8 slots); hits cost an L2-like
    latency, misses cost a full 4 KB-block ORAM access.
    """
    slots = max(buffer_bytes // block_bytes, 1)
    resident: List[int] = []
    cycles = (
        trace.instructions
        + trace.mem_refs * proc.l1_latency
        + trace.l2_hits * proc.l2_latency
    )
    line_addrs, _ = trace.columns()
    for line_addr in line_addrs.tolist():
        block = line_addr * proc.line_bytes // block_bytes
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


def phantom_oram_latency(proc_ghz: float = 1.3, channels: int = 2) -> float:
    """Per-access latency of the 4 KB-block, L=19 Phantom tree."""
    cfg = OramConfig(
        num_blocks=2**20, block_bytes=PHANTOM_BLOCK_BYTES, levels=19
    )
    model = DramModel(cfg.levels, cfg.bucket_bytes, DramConfig(channels=channels))
    return model.average_oram_latency_proc_cycles(proc_ghz)


def sweep(benchmarks: Optional[Iterable[str]] = None) -> SweepSpec:
    """PC_X32 at 64-byte blocks over the benchmarks."""
    return SweepSpec.from_args(
        schemes=["PC_X32:block_bytes=64"],
        benchmarks=BENCHMARKS if benchmarks is None else benchmarks,
    )


def make_runner(misses: Optional[int] = None) -> SimulationRunner:
    """The default platform with Phantom's 128-byte lines."""
    return SimulationRunner(
        proc=ProcessorConfig(line_bytes=PHANTOM_LINE_BYTES),
        misses_per_benchmark=misses,
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
    runner = make_runner(misses)
    report = complete_report(sweep(benchmarks), runner)
    return table_from_report(report, phantom_replays(runner, report["benchmarks"]))


def headline(speedups: Mapping[str, float]) -> Dict[str, float]:
    """Geomean speedup; PC_X32's share of Phantom's bytes, closed form (%)."""
    pc_path = (OramConfig(num_blocks=2**26, block_bytes=64).levels + 1) * 64
    phantom_path = (19 + 1) * PHANTOM_BLOCK_BYTES  # L = 19, as in phantom_oram_latency
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
