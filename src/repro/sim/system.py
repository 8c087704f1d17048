"""Replay engine: drive a Frontend with an LLC miss trace and total cycles.

Cycle accounting for a trace (in-order, single-issue, Table 1):

    instructions x 1                   base CPI
  + mem_refs x L1_latency              every reference probes L1
  + l2_hits x L2_latency               L1 misses served by L2
  + sum over LLC events of miss latency

For the insecure baseline the event latency is the measured average DRAM
access (58 cycles); for ORAM it comes from :class:`OramTimingModel` with
the Frontend's actual per-event tree-access count.
"""

from __future__ import annotations

from typing import Optional

from repro.config import ProcessorConfig
from repro.frontend.base import Frontend
from repro.proc.hierarchy import MissTrace
from repro.sim.engine import ReplayEngine
from repro.sim.metrics import SimResult
from repro.sim.timing import OramTimingModel


def base_cycles(trace: MissTrace, proc: ProcessorConfig) -> int:
    """Cycles spent outside the LLC-miss path: an exact ``int``, which
    an ORAM replay's first latency makes a float and the insecure
    baseline keeps."""
    return (
        trace.instructions
        + trace.mem_refs * proc.l1_latency
        + trace.l2_hits * proc.l2_latency
    )


def insecure_cycles(
    trace: MissTrace, proc: ProcessorConfig = ProcessorConfig()
) -> SimResult:
    """Baseline: the same trace on a conventional DRAM system."""
    events = trace.num_events
    cycles = base_cycles(trace, proc) + events * proc.insecure_dram_latency
    return SimResult(
        benchmark=trace.name,
        scheme="insecure",
        cycles=cycles,
        instructions=trace.instructions,
        llc_misses=trace.llc_misses,
        oram_accesses=events,
        tree_accesses=0,
        data_bytes=events * proc.line_bytes,
        mpki=trace.mpki,
    )


def replay_trace(
    frontend: Frontend,
    trace: MissTrace,
    timing: OramTimingModel,
    proc: ProcessorConfig = ProcessorConfig(),
    scheme: str = "oram",
    mode: Optional[str] = None,
) -> SimResult:
    """Feed every LLC miss/eviction through the Frontend and sum latency.

    ``mode`` selects the replay tier: ``"scalar"`` (the reference tier:
    no kernel enabled, object storage, interpreted stages) or
    ``"compiled"`` (the fast tier — the C extension of
    :mod:`repro.sim.native`, which it raises without). ``None`` takes the
    environment's tier (``REPRO_NATIVE``: fast when the extension is
    built, else reference). Both tiers run the one loop,
    :meth:`ReplayEngine.run_trace <repro.sim.engine.ReplayEngine.run_trace>`
    over the trace's columns, and are bit-identical in every simulated
    outcome — SimResult, frontend statistics, and final tree contents —
    a property pinned by the lockstep differential suite; the choice is
    performance-only and therefore never part of any result-cache key.

    The engine is the same access core the :mod:`repro.serve` layer
    drives with live request batches, so serving inherits every
    bit-identity guarantee the differential harnesses prove here.
    """
    engine = ReplayEngine.for_mode(frontend, timing, mode, proc)
    engine.cycles = base_cycles(trace, proc)
    engine.run_trace(trace)
    return engine.result(trace, scheme)
