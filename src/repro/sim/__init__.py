"""Full-system simulation: replay LLC miss traces against ORAM Frontends.

The flow mirrors the paper's methodology (§7.1.1): a trace-driven in-order
core with L1/L2 caches produces an LLC miss/eviction stream; the ORAM
controller (Frontend + Backend) services each event; DRAM timing comes
from the :mod:`repro.dram` model; per-event latency composes the Table 1
constants (Frontend/Backend latency, AES/SHA3) with the simulated tree
access count.
"""

from repro.sim.metrics import SimResult, slowdown_table
from repro.sim.replay import REPLAY_MODES
from repro.sim.runner import SimulationRunner
from repro.sim.store import ResultCache, TraceCache
from repro.sim.sweep import SweepSpec, run_sweep, sweep_table
from repro.sim.system import insecure_cycles, replay_trace
from repro.sim.timing import OramTimingModel

__all__ = [
    "SimResult",
    "slowdown_table",
    "SimulationRunner",
    "SweepSpec",
    "run_sweep",
    "sweep_table",
    "insecure_cycles",
    "replay_trace",
    "REPLAY_MODES",
    "OramTimingModel",
    "TraceCache",
    "ResultCache",
]
