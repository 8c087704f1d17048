"""Table 2: ORAM tree latency by DRAM channel count.

Parameters from Table 1, the ``table2`` row of
:data:`~repro.eval.paper_values.PLATFORMS`: 4 GB Data ORAM (N = 2^26),
64-byte blocks, Z=4, 1.3 GHz core, DDR3-1333 channels; also the latency
of an insecure DRAM access.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.dram.config import DramConfig
from repro.dram.model import DramModel
from repro.eval.paper_values import PLATFORMS, report

PLATFORM = PLATFORMS["table2"]


def run(channel_counts: Tuple[int, ...] = (1, 2, 4, 8)) -> Dict[int, float]:
    """ORAM tree latency (processor cycles) per channel count."""
    cfg = PLATFORM.oram
    out: Dict[int, float] = {}
    for count in channel_counts:
        # The row's memory system at ``count`` channels (DramConfig's first field).
        model = DramModel(cfg.levels, cfg.bucket_bytes, DramConfig(count))
        out[count] = model.average_oram_latency_proc_cycles(PLATFORM.core_ghz)
    return out


def headline(latencies: Dict[int, float]) -> Dict[str, float]:
    """Latency per channel count, and of an insecure access, in cycles."""
    ours = {f"table2.latency.{ch}ch": cycles for ch, cycles in latencies.items()}
    cfg = PLATFORM.oram
    insecure = DramModel(cfg.levels, cfg.bucket_bytes, PLATFORM.dram)
    ours["table2.insecure"] = insecure.insecure_access_cycles(PLATFORM.core_ghz)
    return ours


def main() -> None:
    """Print the latencies beside the paper's."""
    print("Table 2: ORAM access latency by DRAM channel count (proc cycles)")
    report("table2", headline(run()))


if __name__ == "__main__":
    main()
